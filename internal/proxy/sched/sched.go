// Package sched implements the proxy's prefetch priority scheduling (§5 of
// the paper): multiple prefetch requests can be outstanding at any moment,
// and to minimize overall response time the proxy prioritizes signatures
// whose requests take longer to complete and whose prefetched responses are
// hit more often, using a linear combination of the two as the priority.
//
// Beyond the paper, dispatch follows the user: a task carries its distance
// from a live client request (its chain depth), the nearest work runs first
// and the §5 priority decides only among tasks equally far away, and a task
// a client has since come closer to is promoted where it waits (Promote).
// Running tasks are never preempted, so tasks marked as guesses never hold
// every worker: nearer work arriving behind a burst of them still finds one
// free. The scheduler is also overload-safe: tasks carry a class (foreground
// refresh, shallow prefetch, deep prefetch) that sets how far into a filling
// queue they are admitted, so speculative work is shed first; tasks carry an
// enqueue deadline so stale work is dropped at dispatch instead of run; every
// shed is counted per class and reason, and every dispatch's queue wait is
// summed per class, so a saturated pool shows; and a panicking task is
// recovered without taking down the worker pool or deadlocking Drain.
package sched

import (
	"container/heap"
	"sync"
	"time"
)

// Class decides how far into a filling queue a task is admitted, and which
// counters it is booked under from Submit to its end. Dispatch order is not
// the class's business beyond foreground-first: see taskHeap.
type Class int

const (
	// ClassForeground is client-adjacent work: refreshing an entry a client
	// just found expired. It may use the whole queue.
	ClassForeground Class = iota
	// ClassShallow is a first-hop prefetch spawned by live client traffic.
	// It is admitted into at most 3/4 of the queue.
	ClassShallow
	// ClassDeep is speculative chained prefetching (depth ≥ 1). It is
	// admitted into at most 1/2 of the queue, so it is the first work shed
	// under pressure.
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
	// Class is the task's admission and accounting class; the zero value is
	// ClassForeground.
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

	// Queue bookkeeping, owned by the scheduler from Submit to dispatch: the
	// priority snapshot, the submission order, the position in the ready
	// heap (-1 while still in the inbox), the Submit instant, whether a full
	// guess cap has held the task back, and whether the task waits in the
	// queue at all. A submitted Task must not be copied.
	prio      float64
	seq       int64
	pos       int
	submitted time.Time
	held      bool
	queued    bool
}

// Job is a task's behaviour as one value; see Task.Job.
type Job interface {
	Run()
	Abandon()
	OnPanic(v any)
}

// PriorityFunc maps a signature to its current priority (higher runs first
// among tasks of one depth). It is consulted when a task moves from the
// submission inbox into the dispatch heap, so each task's priority is
// computed exactly once per dispatch batch rather than once per queued task
// per dispatch.
type PriorityFunc func(sigID string) float64

// Config configures a Scheduler.
type Config struct {
	// Workers is the pool size (minimum 1).
	Workers int
	// Priority ranks signatures within a depth; nil means FIFO.
	Priority PriorityFunc
	// MaxQueue bounds queued tasks (default 4096). Per-class admission caps
	// derive from it: foreground may fill the whole queue, shallow 3/4 of
	// it, deep 1/2.
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

// taskHeap is the ready queue. Foreground refreshes run first — a client is
// using that entry now. Everything else runs nearest-first: by depth, then
// snapshot priority (§5), then submission order. Depth leads because the §5
// hit-rate term is 0.5 for a signature never prefetched and hits/prefetches
// (0) after its first batch, which on its own runs the newest — the deepest
// — signature first, ahead of what another user's client is about to ask for.
type taskHeap []*Task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return before(h[i], h[j]) }

// before is the dispatch order of taskHeap.
func before(a, b *Task) bool {
	if af, bf := a.Class == ClassForeground, b.Class == ClassForeground; af != bf {
		return af
	}
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	if a.prio != b.prio {
		return a.prio > b.prio
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
	priority PriorityFunc
	now      func() time.Time

	mu   sync.Mutex
	cond *sync.Cond
	// inbox collects submissions; workers batch-move it into ready, or
	// guesses for Guess tasks, computing each task's priority once at that
	// point. guessing counts running guesses, at most guessCap: one worker
	// fewer than the pool, unless the pool is one worker.
	inbox      []*Task
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
	if cfg.Priority == nil {
		cfg.Priority = func(string) float64 { return 0 }
	}
	s := &Scheduler{priority: cfg.Priority, now: cfg.Now, maxQueue: cfg.MaxQueue,
		guessCap: atLeast1(cfg.Workers - 1)}
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
	t.pos, t.submitted, t.queued = -1, now, true
	s.inbox = append(s.inbox, t)
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
	if t.pos >= 0 {
		heap.Fix(s.heapOf(t), t.pos)
	}
	s.promoted++
	return true
}

// heapOf returns the dispatch heap a task waits in once out of the inbox.
func (s *Scheduler) heapOf(t *Task) *taskHeap {
	if t.Guess {
		return &s.guesses
	}
	return &s.ready
}

func (s *Scheduler) queuedLocked() int { return len(s.inbox) + len(s.ready) + len(s.guesses) }

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
		Foreground:  s.classes[ClassForeground],
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
// discarded (counted as closed drops, with Abandon called on each).
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	orphans := make([]*Task, 0, s.queuedLocked())
	orphans = append(orphans, s.inbox...)
	orphans = append(orphans, s.ready...)
	orphans = append(orphans, s.guesses...)
	s.inbox, s.ready, s.guesses = nil, nil, nil
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
		t.prio, t.seq = p, s.seq
		heap.Push(s.heapOf(t), t)
	}
	s.inbox = s.inbox[:0]
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
		for len(s.inbox) == 0 && len(s.ready) == 0 && (len(s.guesses) == 0 || s.guessing >= s.guessCap) && !s.closed {
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
		s.mergeInboxLocked()
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
