// Package sched runs the proxy's prefetches on a bounded worker pool (§5 of
// the paper: multiple prefetch requests can be outstanding at any moment).
//
// Dispatch follows the user rather than §5's priority: a task carries its
// distance from a live client request (its chain depth), the nearest work
// runs first and submission order decides among tasks equally far away, and
// a task a client has since come closer to is promoted where it waits
// (Promote). Running tasks are never preempted, so tasks marked as guesses
// never hold every worker: nearer work arriving behind a burst of them still
// finds one free. The scheduler is also overload-safe: tasks carry a class
// (shallow or deep prefetch) that sets how far into a filling queue they are
// admitted, so speculative work is shed first; tasks carry an enqueue
// deadline so stale work is dropped at dispatch instead of run; every shed is
// counted per class and reason, and every dispatch's queue wait is summed per
// class, so a saturated pool shows; and a panicking task is recovered without
// taking down the worker pool or deadlocking Drain.
package sched

import (
	"container/heap"
	"sync"
	"time"
)

// Class decides how far into a filling queue a task is admitted, and which
// counters it is booked under from Submit to its end. It does not order
// dispatch: see taskHeap. The zero value is no class: such a task is held
// only to the queue bound and is booked under neither class, so Metrics
// leaves it out. Every prefetch the proxy submits has a class; tests submit
// classless tasks to occupy a worker without touching the class counters.
type Class int

const (
	// ClassShallow is a first-hop prefetch spawned by live client traffic.
	// It is admitted into at most 3/4 of the queue.
	ClassShallow Class = iota + 1
	// ClassDeep is speculative chained prefetching (depth ≥ 1). It is
	// admitted into at most 1/2 of the queue, so it is the first work shed
	// under pressure.
	ClassDeep

	numClasses
)

// String names the class for telemetry.
func (c Class) String() string {
	switch c {
	case ClassShallow:
		return "shallow"
	case ClassDeep:
		return "deep"
	}
	return "unknown"
}

// Task is one queued prefetch.
type Task struct {
	// SigID identifies the signature the prefetch belongs to.
	SigID string
	// Class is the task's admission and accounting class; the zero value is
	// no class.
	Class Class
	// Depth is the task's distance from a live client request: 0 for the
	// children of a transaction a client just made, n for the nth link of a
	// chain speculated from there. Nearer tasks dispatch first.
	Depth int
	// Guess marks work the submitter is least sure of (the proxy's borrowed
	// first visits). Guesses never hold every worker at once: a burst of
	// them, each holding a worker for a whole origin round trip, cannot keep
	// nearer work that arrives meanwhile from starting.
	Guess bool
	// Deadline, when non-zero, sheds the task if it has not started running
	// by then: it is rejected at Submit when already past, and dropped at
	// dispatch when it expired while queued.
	Deadline time.Time
	// Run performs the prefetch when Job is nil.
	Run func()
	// Job, when non-nil, stands in for Run and is told when the task is shed
	// or panics.
	Job Job

	// Queue bookkeeping, owned by the scheduler from Submit to dispatch: the
	// submission order, the position in its dispatch heap, the Submit
	// instant, whether a full guess cap has held the task back, and whether
	// the task waits in the queue at all. A submitted Task must not be
	// copied.
	seq       int64
	pos       int
	submitted time.Time
	held      bool
	queued    bool
}

// Job is a task's behaviour as one value; see Task.Job.
type Job interface {
	// Run performs the prefetch.
	Run()
	// Abandon is called once if the scheduler sheds the task after accepting
	// it (deadline expiry at dispatch, or discard at Close), so the submitter
	// can release claims tied to the task.
	Abandon()
	// OnPanic receives the recovered value if Run panics. The panic never
	// escapes the worker pool.
	OnPanic(v any)
}

// Config configures a Scheduler.
type Config struct {
	// Workers is the pool size (minimum 1).
	Workers int
	// Priority is inert: it is accepted and never called. Dispatch is by
	// depth, then submission order. The field stays because the benchmark
	// module still sets it.
	Priority func(sigID string) float64
	// MaxQueue bounds queued tasks (default 4096). Per-class admission caps
	// derive from it: shallow may fill 3/4 of it, deep 1/2.
	MaxQueue int
	// Now supplies time for deadline checks and queue waits; defaults to
	// time.Now. Injected so frozen-clock tests drive expiry deterministically.
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
	// WaitNanos sums the queue wait, Submit to dispatch, of the tasks counted
	// in Ran; WaitNanos/Ran is the class's mean wait. Shed tasks book none.
	WaitNanos int64
}

// MeanWait is the class's mean queue wait over the tasks that ran.
func (c ClassMetrics) MeanWait() time.Duration {
	if c.Ran == 0 {
		return 0
	}
	return time.Duration(c.WaitNanos / c.Ran)
}

// Dropped is the class's total shed count: refused at Submit or shed after.
func (c ClassMetrics) Dropped() int64 {
	return c.DroppedFull + c.RejectedClosed + c.RejectedExpired + c.DroppedClosed + c.DroppedExpired
}

// Metrics is a point-in-time snapshot of the scheduler's counters.
type Metrics struct {
	// Foreground is always zero: there is no foreground class. It stays
	// because the benchmark module still reads it.
	Foreground ClassMetrics
	Shallow    ClassMetrics
	Deep       ClassMetrics
	// Panics counts recovered task panics.
	Panics int64
	// Promoted counts queued tasks Promote moved to a shallower depth.
	Promoted int64
	// GuessesHeld counts guesses a free worker would have started next but
	// the full guess cap held back; each guess is counted once.
	GuessesHeld int64
}

// ByClass returns the snapshot for one class; zero for anything else.
func (m Metrics) ByClass(c Class) ClassMetrics {
	switch c {
	case ClassShallow:
		return m.Shallow
	case ClassDeep:
		return m.Deep
	}
	return ClassMetrics{}
}

// taskHeap is a dispatch queue: nearest-first by depth, then submission
// order. §5's priority (mean response time plus hit rate) does not order it:
// its hit-rate term is 0.5 for a signature never prefetched and 0 after its
// first batch, which on its own runs the newest — the deepest — signature
// first, ahead of what another user's client is about to ask for; and as a
// tie-break within a depth it measured no better than submission order.
type taskHeap []*Task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return before(h[i], h[j]) }

// before is the dispatch order of taskHeap.
func before(a, b *Task) bool {
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	return a.seq < b.seq
}
func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *taskHeap) Push(x any) {
	t := x.(*Task)
	t.pos = len(*h)
	*h = append(*h, t)
}
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Scheduler runs prefetch tasks on a bounded worker pool, in taskHeap order.
type Scheduler struct {
	now func() time.Time

	mu   sync.Mutex
	cond *sync.Cond
	// Submit pushes Guess tasks into guesses and every other task into
	// ready. guessing counts running guesses, at most guessCap: one worker
	// fewer than the pool, unless the pool is one worker.
	ready      taskHeap
	guesses    taskHeap
	guessing   int
	guessCap   int
	seq        int64
	closed     bool
	wg         sync.WaitGroup
	pending    sync.WaitGroup
	maxQueue   int
	classLimit [numClasses]int
	classes    [numClasses]ClassMetrics
	panics     int64
	promoted   int64
	held       int64
}

// NewWith starts a scheduler from cfg; zero fields take their defaults.
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
	s := &Scheduler{now: cfg.Now, maxQueue: cfg.MaxQueue, guessCap: atLeast1(cfg.Workers - 1)}
	s.classLimit[0] = cfg.MaxQueue // no class: the queue bound alone
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
// already past; each rejection is counted per class and cause. The Job is
// not abandoned on a rejected Submit — the caller still owns the task.
func (s *Scheduler) Submit(t *Task) bool {
	c := classIdx(t.Class)
	s.mu.Lock()
	if s.closed {
		s.classes[c].RejectedClosed++
		s.mu.Unlock()
		return false
	}
	now := s.now()
	if !t.Deadline.IsZero() && now.After(t.Deadline) {
		s.classes[c].RejectedExpired++
		s.mu.Unlock()
		return false
	}
	if s.queuedLocked() >= s.classLimit[c] {
		s.classes[c].DroppedFull++
		s.mu.Unlock()
		return false
	}
	s.classes[c].Submitted++
	s.seq++
	t.seq, t.submitted, t.queued = s.seq, now, true
	heap.Push(s.heapOf(t), t)
	s.pending.Add(1)
	s.mu.Unlock()
	s.cond.Signal()
	return true
}

// Promote tells the scheduler that demand has come within depth of task t:
// if t still waits at a greater depth it moves to depth and is re-ordered
// where it waits, O(log n). It reports whether t moved; a task never
// submitted, already running, finished or shed, and a task already that near
// are all no-ops. The task stays booked under the class it was submitted in.
func (s *Scheduler) Promote(t *Task, depth int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !t.queued || t.Depth <= depth {
		return false
	}
	t.Depth = depth
	heap.Fix(s.heapOf(t), t.pos)
	s.promoted++
	return true
}

// heapOf returns the dispatch heap a task waits in.
func (s *Scheduler) heapOf(t *Task) *taskHeap {
	if t.Guess {
		return &s.guesses
	}
	return &s.ready
}

func (s *Scheduler) queuedLocked() int { return len(s.ready) + len(s.guesses) }

// QueueLen reports the number of queued (not yet running) tasks.
func (s *Scheduler) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedLocked()
}

// Cap reports the queue bound.
func (s *Scheduler) Cap() int { return s.maxQueue }

// Metrics snapshots the shed/run counters.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		Shallow:     s.classes[ClassShallow],
		Deep:        s.classes[ClassDeep],
		Panics:      s.panics,
		Promoted:    s.promoted,
		GuessesHeld: s.held,
	}
}

// Drain blocks until every accepted task has finished running or been shed.
// Useful in tests and the verification phase; live proxies never call it.
func (s *Scheduler) Drain() {
	s.pending.Wait()
}

// Close stops the workers after the current tasks finish; queued tasks are
// discarded (counted as closed drops, each Job abandoned).
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	orphans := append(s.ready, s.guesses...)
	s.ready, s.guesses = nil, nil
	for _, t := range orphans {
		t.queued = false
		s.classes[classIdx(t.Class)].DroppedClosed++
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	for _, t := range orphans {
		s.abandon(t)
	}
	s.wg.Wait()
}

// popLocked takes the next task to dispatch, nil when none may start: the
// ready heap's top or, while guesses hold fewer than guessCap workers and
// it dispatches first, the guess heap's.
func (s *Scheduler) popLocked() *Task {
	h := &s.ready
	if len(s.guesses) > 0 && (len(s.ready) == 0 || before(s.guesses[0], s.ready[0])) {
		if s.guessing < s.guessCap {
			h = &s.guesses
		} else {
			s.holdLocked()
		}
	}
	if len(*h) == 0 {
		return nil
	}
	return heap.Pop(h).(*Task)
}

// holdLocked counts the guess at the head of its heap as held back by the
// full guess cap, once per guess.
func (s *Scheduler) holdLocked() {
	if g := s.guesses[0]; !g.held {
		g.held = true
		s.held++
	}
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.ready) == 0 && (len(s.guesses) == 0 || s.guessing >= s.guessCap) && !s.closed {
			if len(s.guesses) > 0 {
				// This worker is free and a guess waits: only the cap stops it.
				s.holdLocked()
			}
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		var expired []*Task
		var t *Task
		now := s.now()
		for next := s.popLocked(); next != nil; next = s.popLocked() {
			next.queued = false
			if !next.Deadline.IsZero() && now.After(next.Deadline) {
				s.classes[classIdx(next.Class)].DroppedExpired++
				expired = append(expired, next)
				continue
			}
			t = next
			c := &s.classes[classIdx(t.Class)]
			c.Ran++
			c.WaitNanos += int64(max(now.Sub(t.submitted), 0))
			if t.Guess {
				s.guessing++
			}
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
		if t.Guess {
			// A guess slot is free again: a worker idling on a full one may
			// start the next guess.
			s.mu.Lock()
			s.guessing--
			s.mu.Unlock()
			s.cond.Signal()
		}
	}
}

// abandon settles one accepted-but-shed task: its Job's Abandon runs (panics
// contained) and its pending count is released so Drain cannot deadlock.
func (s *Scheduler) abandon(t *Task) {
	defer s.pending.Done()
	if t.Job != nil {
		safeCall(t.Job.Abandon)
	}
}

// runTask executes one task with panic containment: Done is deferred so a
// panic can neither kill the process nor strand Drain, and the recovered
// value is handed to the task's Job.
func (s *Scheduler) runTask(t *Task) {
	defer s.pending.Done()
	defer func() {
		if v := recover(); v != nil {
			s.mu.Lock()
			s.panics++
			s.mu.Unlock()
			if t.Job != nil {
				safeCall(func() { t.Job.OnPanic(v) })
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
