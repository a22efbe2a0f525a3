package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkDispatchDepth4096 measures dispatch throughput at the full queue
// bound: 4096 queued tasks across 64 signatures drained by the pool.
func BenchmarkDispatchDepth4096(b *testing.B) {
	const depth = 4096
	const sigs = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewWith(Config{Workers: 4, MaxQueue: depth})
		// Stall the pool so the whole batch queues before dispatch starts.
		release := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(4)
		for w := 0; w < 4; w++ {
			s.Submit(&Task{SigID: "block", Run: func() { wg.Done(); <-release }})
		}
		wg.Wait()
		for j := 0; j < depth-4; j++ {
			s.Submit(&Task{
				SigID: fmt.Sprintf("sig#%d", j%sigs),
				Class: Class(j % 3),
				Run:   func() {},
			})
		}
		b.StartTimer()
		close(release)
		s.Drain()
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// benchQueue is the default queue bound: the most tasks the heap holds in a
// running proxy.
const benchQueue = 4096

// BenchmarkSubmit times the enqueue path alone (bound checks, class
// accounting) with the pool stalled.
func BenchmarkSubmit(b *testing.B) {
	s := NewWith(Config{Workers: 1, MaxQueue: b.N + 2})
	defer s.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	s.Submit(&Task{SigID: "block", Run: func() { close(started); <-release }})
	<-started
	deadline := time.Now().Add(time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(&Task{SigID: "sig#1", Class: ClassShallow, Deadline: deadline, Run: func() {}})
	}
	b.StopTimer()
	close(release)
	s.Drain()
}

// BenchmarkPromote re-orders a full queue: every call lifts one task one
// depth above the tasks not yet lifted this round, so each one sifts through
// the heap.
func BenchmarkPromote(b *testing.B) {
	s := NewWith(Config{Workers: 1, MaxQueue: 2 * (benchQueue + 2)})
	defer s.Close()
	release, started := make(chan struct{}), make(chan struct{})
	s.Submit(&Task{SigID: "block", Run: func() { close(started); <-release }})
	<-started
	top := b.N/benchQueue + 2
	tasks := make([]*Task, benchQueue)
	for i := range tasks {
		tasks[i] = &Task{SigID: fmt.Sprintf("sig#%d", i%64), Class: ClassDeep, Depth: top, Run: func() {}}
		s.Submit(tasks[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Promote(tasks[i%benchQueue], top-1-i/benchQueue) {
			b.Fatal("Promote found nothing to move")
		}
	}
	b.StopTimer()
	close(release)
	s.Drain()
}
