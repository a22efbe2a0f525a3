// Package sched implements the proxy's prefetch priority scheduling (§5 of
// the paper): multiple prefetch requests can be outstanding at any moment,
// and to minimize overall response time the proxy prioritizes signatures
// whose requests take longer to complete and whose prefetched responses are
// hit more often, using a linear combination of the two as the priority.
//
// Beyond the paper, the scheduler is overload-safe: tasks carry a priority
// class (foreground refresh > shallow prefetch > deep prefetch) so that when
// the queue fills, speculative work is shed first; tasks carry an enqueue
// deadline so stale work is dropped at dispatch instead of run; every shed is
// counted per class and reason; and a panicking task is recovered without
// taking down the worker pool or deadlocking Drain.
package sched

import (
	"container/heap"
	"sync"
	"time"
)

// Class ranks queued work by how close it is to a waiting client. Lower
// values dispatch first and are admitted deeper into a filling queue.
type Class int

const (
	// ClassForeground is client-adjacent work: refreshing an entry a client
	// just found expired. It may use the whole queue.
	ClassForeground Class = iota
	// ClassShallow is a first-hop prefetch spawned by live client traffic.
	// It is admitted into at most 3/4 of the queue.
	ClassShallow
	// ClassDeep is speculative chained prefetching (depth ≥ the configured
	// deep threshold). It is admitted into at most 1/2 of the queue, so it
	// is the first work shed under pressure.
	ClassDeep

	numClasses
)

// String names the class for telemetry.
func (c Class) String() string {
	switch c {
	case ClassForeground:
		return "foreground"
	case ClassShallow:
		return "shallow"
	case ClassDeep:
		return "deep"
	}
	return "unknown"
}

// Task is one queued prefetch.
type Task struct {
	// SigID identifies the signature the prefetch belongs to; priorities
	// are computed per signature.
	SigID string
	// Class is the task's shed-ordering class; the zero value is
	// ClassForeground.
	Class Class
	// Deadline, when non-zero, sheds the task if it has not started running
	// by then: it is rejected at Submit when already past, and dropped at
	// dispatch when it expired while queued.
	Deadline time.Time
	// Run performs the prefetch.
	Run func()
	// Abandon, when non-nil, is called once if the scheduler sheds the task
	// after accepting it (deadline expiry at dispatch, or discard at Close)
	// so the submitter can release claims tied to the task.
	Abandon func()
	// OnPanic, when non-nil, receives the recovered value if Run panics.
	// The panic never escapes the worker pool.
	OnPanic func(v any)
	// Job, when non-nil, stands in for Run, Abandon and OnPanic together: a
	// submitter whose three hooks close over the same state passes that
	// state as one value instead of allocating three closures per task.
	Job Job
}

// Job is a task's behaviour as one value; see Task.Job.
type Job interface {
	Run()
	Abandon()
	OnPanic(v any)
}

// PriorityFunc maps a signature to its current priority (higher runs first
// within a class). It is consulted when a task moves from the submission
// inbox into the dispatch heap, so each task's priority is computed exactly
// once per dispatch batch rather than once per queued task per dispatch.
type PriorityFunc func(sigID string) float64

// Config configures a Scheduler.
type Config struct {
	// Workers is the pool size (minimum 1).
	Workers int
	// Priority ranks signatures within a class; nil means FIFO.
	Priority PriorityFunc
	// MaxQueue bounds queued tasks (default 4096). Per-class admission caps
	// derive from it: foreground may fill the whole queue, shallow 3/4 of
	// it, deep 1/2.
	MaxQueue int
	// Now supplies time for deadline checks; defaults to time.Now.
	// Injected so frozen-clock tests drive expiry deterministically.
	Now func() time.Time
}

// ClassMetrics are one class's lifetime counters.
type ClassMetrics struct {
	// Submitted counts tasks accepted into the queue. Every accepted task
	// ends in exactly one of Ran, DroppedClosed or DroppedExpired.
	Submitted int64
	// Ran counts tasks dispatched to a worker.
	Ran int64
	// DroppedFull / RejectedClosed / RejectedExpired count Submit calls
	// refused, by cause: the class's queue share was full, the scheduler was
	// closed, or the task's deadline had already passed. Refused tasks were
	// never accepted and are not in Submitted.
	DroppedFull     int64
	RejectedClosed  int64
	RejectedExpired int64
	// DroppedClosed / DroppedExpired count accepted tasks shed before they
	// ran: still queued at Close, or past their deadline at dispatch.
	DroppedClosed  int64
	DroppedExpired int64
}

// Dropped is the class's total shed count: refused at Submit or shed after.
func (c ClassMetrics) Dropped() int64 {
	return c.DroppedFull + c.RejectedClosed + c.RejectedExpired + c.DroppedClosed + c.DroppedExpired
}

// Metrics is a point-in-time snapshot of the scheduler's counters.
type Metrics struct {
	Foreground ClassMetrics
	Shallow    ClassMetrics
	Deep       ClassMetrics
	// Panics counts recovered task panics.
	Panics int64
}

// ByClass returns the snapshot for one class.
func (m Metrics) ByClass(c Class) ClassMetrics {
	switch c {
	case ClassShallow:
		return m.Shallow
	case ClassDeep:
		return m.Deep
	default:
		return m.Foreground
	}
}

// item is one heap entry: the task plus its priority snapshot.
type item struct {
	t    *Task
	prio float64
	seq  int64
}

// taskHeap orders by class first (foreground before speculative), snapshot
// priority second, submission order third.
type taskHeap []item

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].t.Class != h[j].t.Class {
		return h[i].t.Class < h[j].t.Class
	}
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(item)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = item{}
	*h = old[:n-1]
	return it
}

// Scheduler runs prefetch tasks on a bounded worker pool, foreground class
// and highest priority first.
type Scheduler struct {
	priority PriorityFunc
	now      func() time.Time

	mu   sync.Mutex
	cond *sync.Cond
	// inbox collects submissions; workers batch-move it into ready,
	// computing each task's priority once at that point.
	inbox      []*Task
	ready      taskHeap
	seq        int64
	closed     bool
	wg         sync.WaitGroup
	pending    sync.WaitGroup
	maxQueue   int
	classLimit [numClasses]int
	classes    [numClasses]ClassMetrics
	panics     int64
}

// New starts a scheduler with the given worker count (minimum 1) and
// priority function, all other knobs defaulted.
func New(workers int, priority PriorityFunc) *Scheduler {
	return NewWith(Config{Workers: workers, Priority: priority})
}

// NewWith starts a scheduler from a full Config.
func NewWith(cfg Config) *Scheduler {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4096
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Priority == nil {
		cfg.Priority = func(string) float64 { return 0 }
	}
	s := &Scheduler{priority: cfg.Priority, now: cfg.Now, maxQueue: cfg.MaxQueue}
	s.classLimit[ClassForeground] = cfg.MaxQueue
	s.classLimit[ClassShallow] = atLeast1(cfg.MaxQueue * 3 / 4)
	s.classLimit[ClassDeep] = atLeast1(cfg.MaxQueue / 2)
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

func atLeast1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

func classIdx(c Class) Class {
	if c < 0 || c >= numClasses {
		return ClassDeep
	}
	return c
}

// Submit enqueues a task. It reports false when the scheduler is closed,
// the task's class has exhausted its queue share, or the task's deadline is
// already past; each rejection is counted per class and cause. Abandon is
// NOT called on a rejected Submit — the caller still owns the task.
func (s *Scheduler) Submit(t *Task) bool {
	c := classIdx(t.Class)
	s.mu.Lock()
	if s.closed {
		s.classes[c].RejectedClosed++
		s.mu.Unlock()
		return false
	}
	if !t.Deadline.IsZero() && s.now().After(t.Deadline) {
		s.classes[c].RejectedExpired++
		s.mu.Unlock()
		return false
	}
	if len(s.inbox)+len(s.ready) >= s.classLimit[c] {
		s.classes[c].DroppedFull++
		s.mu.Unlock()
		return false
	}
	s.classes[c].Submitted++
	s.inbox = append(s.inbox, t)
	s.pending.Add(1)
	s.mu.Unlock()
	s.cond.Signal()
	return true
}

// QueueLen reports the number of queued (not yet running) tasks.
func (s *Scheduler) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inbox) + len(s.ready)
}

// Cap reports the queue bound.
func (s *Scheduler) Cap() int { return s.maxQueue }

// Metrics snapshots the shed/run counters.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		Foreground: s.classes[ClassForeground],
		Shallow:    s.classes[ClassShallow],
		Deep:       s.classes[ClassDeep],
		Panics:     s.panics,
	}
}

// Drain blocks until every accepted task has finished running or been shed.
// Useful in tests and the verification phase; live proxies never call it.
func (s *Scheduler) Drain() {
	s.pending.Wait()
}

// Close stops the workers after the current tasks finish; queued tasks are
// discarded (counted as closed drops, with Abandon called on each).
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	orphans := make([]*Task, 0, len(s.inbox)+len(s.ready))
	orphans = append(orphans, s.inbox...)
	for _, it := range s.ready {
		orphans = append(orphans, it.t)
	}
	s.inbox, s.ready = nil, nil
	for _, t := range orphans {
		s.classes[classIdx(t.Class)].DroppedClosed++
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	for _, t := range orphans {
		s.abandon(t)
	}
	s.wg.Wait()
}

// mergeInboxLocked moves submissions into the dispatch heap, computing each
// distinct signature's priority exactly once for the batch.
func (s *Scheduler) mergeInboxLocked() {
	if len(s.inbox) == 0 {
		return
	}
	prios := make(map[string]float64, len(s.inbox))
	for _, t := range s.inbox {
		p, ok := prios[t.SigID]
		if !ok {
			p = s.priority(t.SigID)
			prios[t.SigID] = p
		}
		s.seq++
		heap.Push(&s.ready, item{t: t, prio: p, seq: s.seq})
	}
	s.inbox = s.inbox[:0]
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.inbox) == 0 && len(s.ready) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.mergeInboxLocked()
		var expired []*Task
		var t *Task
		now := s.now()
		for len(s.ready) > 0 {
			it := heap.Pop(&s.ready).(item)
			if !it.t.Deadline.IsZero() && now.After(it.t.Deadline) {
				s.classes[classIdx(it.t.Class)].DroppedExpired++
				expired = append(expired, it.t)
				continue
			}
			t = it.t
			s.classes[classIdx(t.Class)].Ran++
			break
		}
		s.mu.Unlock()
		for _, e := range expired {
			s.abandon(e)
		}
		if t == nil {
			continue
		}
		s.runTask(t)
	}
}

// abandon settles one accepted-but-shed task: its Abandon hook runs (panics
// contained) and its pending count is released so Drain cannot deadlock.
func (s *Scheduler) abandon(t *Task) {
	defer s.pending.Done()
	switch {
	case t.Job != nil:
		safeCall(t.Job.Abandon)
	case t.Abandon != nil:
		safeCall(t.Abandon)
	}
}

// runTask executes one task with panic containment: Done is deferred so a
// panic can neither kill the process nor strand Drain, and the recovered
// value is handed to the task's OnPanic hook.
func (s *Scheduler) runTask(t *Task) {
	defer s.pending.Done()
	defer func() {
		if v := recover(); v != nil {
			s.mu.Lock()
			s.panics++
			s.mu.Unlock()
			switch {
			case t.Job != nil:
				safeCall(func() { t.Job.OnPanic(v) })
			case t.OnPanic != nil:
				safeCall(func() { t.OnPanic(v) })
			}
		}
	}()
	if t.Job != nil {
		t.Job.Run()
		return
	}
	t.Run()
}

// safeCall runs a hook, swallowing any panic it raises.
func safeCall(f func()) {
	defer func() { _ = recover() }()
	f()
}
