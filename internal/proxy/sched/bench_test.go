package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// benchPriority mimics the proxy's Stats.Priority: a map lookup plus
// arithmetic behind a mutex. The seed scheduler called it O(queue) times per
// dispatch under the scheduler lock; the snapshot heap calls it once per
// submitted task.
type benchPriority struct {
	mu    sync.Mutex
	prios map[string]float64
}

func (b *benchPriority) get(id string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.prios[id] + 0.5
}

func newBenchPriority(sigs int) *benchPriority {
	p := &benchPriority{prios: make(map[string]float64, sigs)}
	for i := 0; i < sigs; i++ {
		p.prios[fmt.Sprintf("sig#%d", i)] = float64(i % 17)
	}
	return p
}

// BenchmarkDispatchDepth4096 measures dispatch throughput at the full queue
// bound: 4096 queued tasks across 64 signatures drained by the pool. The
// seed's per-dispatch scan was O(n·PriorityFunc) under the lock (~16.7M
// priority calls to drain this queue); the snapshot heap computes 4096.
func BenchmarkDispatchDepth4096(b *testing.B) {
	const depth = 4096
	const sigs = 64
	pr := newBenchPriority(sigs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewWith(Config{Workers: 4, Priority: pr.get, MaxQueue: depth})
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
	pr := newBenchPriority(64)
	s := NewWith(Config{Workers: 1, Priority: pr.get, MaxQueue: b.N + 2})
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
	pr := newBenchPriority(64)
	s := NewWith(Config{Workers: 1, Priority: pr.get, MaxQueue: 2 * (benchQueue + 2)})
	defer s.Close()
	release := make(chan struct{})
	s.Submit(&Task{SigID: "block", Run: func() { <-release }})
	top := b.N/benchQueue + 2
	tasks := make([]*Task, benchQueue)
	for i := range tasks {
		tasks[i] = &Task{SigID: fmt.Sprintf("sig#%d", i%64), Class: ClassDeep, Depth: top, Run: func() {}}
		s.Submit(tasks[i])
	}
	// One dispatch merges the inbox into the heap, then the worker parks again.
	gate, parked := make(chan struct{}), make(chan struct{})
	s.Submit(&Task{SigID: "block", Run: func() { close(parked); <-gate }})
	close(release)
	<-parked
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Promote(tasks[i%benchQueue], top-1-i/benchQueue) {
			b.Fatal("Promote found nothing to move")
		}
	}
	b.StopTimer()
	close(gate)
	s.Drain()
}
