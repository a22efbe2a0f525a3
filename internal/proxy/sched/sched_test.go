package sched

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunsAllTasks(t *testing.T) {
	s := NewWith(Config{Workers: 4})
	defer s.Close()
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		ok := s.Submit(&Task{SigID: "a", Run: func() { n.Add(1) }})
		if !ok {
			t.Fatal("Submit refused")
		}
	}
	s.Drain()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

// stalled returns a one-worker scheduler whose worker is parked inside
// running, a classless task of depth 1, until release is closed, so what is
// submitted meanwhile only queues.
func stalled(t *testing.T, cfg Config) (s *Scheduler, running *Task, release chan struct{}) {
	t.Helper()
	cfg.Workers = 1
	s = NewWith(cfg)
	release, started := make(chan struct{}), make(chan struct{})
	running = &Task{SigID: "block", Depth: 1, Run: func() { close(started); <-release }}
	s.Submit(running)
	<-started
	return s, running, release
}

// TestPriorityOrdering pins that the §5 priority orders nothing: at one
// depth, tasks run in submission order whatever Config.Priority says of
// their signatures, and Config.Priority is never called.
func TestPriorityOrdering(t *testing.T) {
	prio := map[string]float64{"low": 1, "high": 10}
	var prioCalls atomic.Int64
	s, _, release := stalled(t, Config{Priority: func(id string) float64 { prioCalls.Add(1); return prio[id] }})
	defer s.Close()

	var mu sync.Mutex
	var order []string
	for _, sig := range []string{"low", "low", "low", "high", "high", "high"} {
		s.Submit(&Task{SigID: sig, Class: ClassShallow,
			Run: func() { mu.Lock(); order = append(order, sig); mu.Unlock() }})
	}
	close(release)
	s.Drain()

	want := []string{"low", "low", "low", "high", "high", "high"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want submission order %v", order, want)
	}
	if n := prioCalls.Load(); n != 0 {
		t.Fatalf("Config.Priority called %d times, want never", n)
	}
}

// TestClassOrdering pins the dispatch order: nearest-first by depth, then
// submission order, guesses and other tasks alike. Neither the class nor the
// signature of a task orders it.
func TestClassOrdering(t *testing.T) {
	s, _, release := stalled(t, Config{})
	defer s.Close()

	var mu sync.Mutex
	var order []string
	for _, q := range []struct {
		name  string
		sig   string
		class Class
		depth int
		guess bool
	}{
		{"d3", "hi", ClassDeep, 3, false},
		{"d1-a", "lo", ClassDeep, 1, false},
		{"d0-a", "lo", ClassShallow, 0, false},
		{"d1-guess", "hi", ClassDeep, 1, true},
		{"d1-b", "hi", ClassDeep, 1, false},
		{"d0-deepclass", "hi", ClassDeep, 0, false},
		{"d2-shallowclass", "lo", ClassShallow, 2, false},
		{"d0-guess", "lo", ClassShallow, 0, true},
		{"d0-b", "hi", ClassShallow, 0, false},
	} {
		name := q.name
		s.Submit(&Task{SigID: q.sig, Class: q.class, Depth: q.depth, Guess: q.guess,
			Run: func() { mu.Lock(); order = append(order, name); mu.Unlock() }})
	}
	close(release)
	s.Drain()

	want := []string{"d0-a", "d0-deepclass", "d0-guess", "d0-b", "d1-a", "d1-guess", "d1-b", "d2-shallowclass", "d3"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v\n want   %v", order, want)
	}
}

// TestPromote: Promote moves exactly the task it is handed and re-orders it
// where it waits, is a no-op for a task never submitted, one that is running
// or finished and one already that near, and never moves the class a task is
// counted under.
func TestPromote(t *testing.T) {
	s, running, release := stalled(t, Config{})
	defer s.Close()
	if s.Promote(&Task{SigID: "nobody", Depth: 3}, 0) {
		t.Fatal("Promote moved a task nobody submitted")
	}

	var mu sync.Mutex
	var order []string
	tasks := map[string]*Task{}
	submit := func(name string, depth int) {
		class := ClassDeep
		if depth == 0 {
			class = ClassShallow
		}
		tasks[name] = &Task{SigID: "x", Class: class, Depth: depth,
			Run: func() { mu.Lock(); order = append(order, name); mu.Unlock() }}
		s.Submit(tasks[name])
	}
	submit("a3", 3)
	submit("b2", 2)
	submit("c2", 2)
	submit("d1", 1)
	submit("e0", 0)
	if !s.Promote(tasks["c2"], 1) {
		t.Fatal("Promote of a queued task reported no move")
	}
	if s.Promote(tasks["c2"], 1) || s.Promote(tasks["d1"], 4) || s.Promote(tasks["e0"], 0) {
		t.Fatal("Promote moved a task already that near")
	}
	if s.Promote(running, 0) {
		t.Fatal("Promote moved a running task")
	}
	if !s.Promote(tasks["a3"], 0) { // re-ordered where it waits
		t.Fatal("Promote of a queued task reported no move")
	}
	close(release)
	s.Drain()

	// Inside a depth, submission order: a promoted task keeps its place in it.
	if want := []string{"a3", "e0", "c2", "d1", "b2"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if s.Promote(tasks["a3"], 0) || s.Promote(tasks["b2"], 0) {
		t.Fatal("Promote moved a finished task")
	}
	m := s.Metrics()
	if m.Promoted != 2 {
		t.Fatalf("Promoted = %d, want 2", m.Promoted)
	}
	// a3 ran at depth 0 but was submitted deep, and is counted there.
	if m.Shallow.Submitted != 1 || m.Shallow.Ran != 1 || m.Deep.Submitted != 4 || m.Deep.Ran != 4 {
		t.Fatalf("class accounting moved with the promotion: %+v", m)
	}
}

func TestCloseRejectsSubmit(t *testing.T) {
	s := NewWith(Config{Workers: 2})
	s.Close()
	if s.Submit(&Task{SigID: "x", Class: ClassShallow, Run: func() {}}) {
		t.Fatal("Submit accepted after Close")
	}
	// Refused, never accepted: the rejection is counted apart from both
	// Submitted and the sheds of accepted tasks.
	if m := s.Metrics().Shallow; m.RejectedClosed != 1 || m.DroppedClosed != 0 || m.Submitted != 0 || m.Dropped() != 1 {
		t.Fatalf("metrics = %+v, want one RejectedClosed and nothing else", m)
	}
}

func TestCloseDiscardQueuedAndDrainReturns(t *testing.T) {
	s := NewWith(Config{Workers: 1})
	release := make(chan struct{})
	s.Submit(&Task{SigID: "block", Run: func() { <-release }})
	time.Sleep(10 * time.Millisecond)
	job := &countingJob{}
	s.Submit(&Task{SigID: "q", Job: job})
	close(release)
	s.Close()
	done := make(chan struct{})
	go func() { s.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain hung after Close")
	}
	// The queued task either started before Close (ran) or was discarded
	// (abandoned) — never both, never neither.
	if job.ran+job.abandoned != 1 {
		t.Fatalf("ran=%d abandoned=%d, want exactly one", job.ran, job.abandoned)
	}
}

func TestQueueBound(t *testing.T) {
	s := NewWith(Config{Workers: 1})
	defer s.Close()
	release := make(chan struct{})
	s.Submit(&Task{SigID: "block", Run: func() { <-release }})
	time.Sleep(10 * time.Millisecond)
	accepted := 0
	for i := 0; i < 5000; i++ {
		if s.Submit(&Task{SigID: "x", Class: ClassShallow, Run: func() {}}) {
			accepted++
		}
	}
	if accepted > 4096 {
		t.Fatalf("queue accepted %d tasks, bound is 4096", accepted)
	}
	if m := s.Metrics(); m.Shallow.DroppedFull == 0 {
		t.Fatal("no queue-full drops counted")
	}
	close(release)
	s.Drain()
}

func TestClassQueueShares(t *testing.T) {
	// MaxQueue 8 → deep admits 4, shallow 6, a classless task 8. Stall the
	// worker so submissions only queue.
	s := NewWith(Config{Workers: 1, MaxQueue: 8})
	defer s.Close()
	release := make(chan struct{})
	s.Submit(&Task{SigID: "block", Run: func() { <-release }})
	time.Sleep(10 * time.Millisecond)

	accept := func(c Class, n int) int {
		got := 0
		for i := 0; i < n; i++ {
			if s.Submit(&Task{SigID: "x", Class: c, Run: func() {}}) {
				got++
			}
		}
		return got
	}
	if got := accept(ClassDeep, 10); got != 4 {
		t.Fatalf("deep accepted %d, want 4 (half of 8)", got)
	}
	if got := accept(ClassShallow, 10); got != 2 {
		t.Fatalf("shallow accepted %d, want 2 (6-slot share, 4 used)", got)
	}
	if got := accept(0, 10); got != 2 {
		t.Fatalf("classless accepted %d, want 2 (the 8-slot bound, 6 used)", got)
	}
	// Classless refusals are booked under neither class.
	m := s.Metrics()
	if m.Deep.DroppedFull != 6 || m.Shallow.DroppedFull != 8 {
		t.Fatalf("drop counters = %+v", m)
	}
	close(release)
	s.Drain()
}

func TestQueueLen(t *testing.T) {
	s := NewWith(Config{Workers: 1})
	defer s.Close()
	release := make(chan struct{})
	s.Submit(&Task{SigID: "block", Run: func() { <-release }})
	time.Sleep(10 * time.Millisecond)
	s.Submit(&Task{SigID: "x", Run: func() {}})
	s.Submit(&Task{SigID: "y", Run: func() {}})
	if n := s.QueueLen(); n != 2 {
		t.Fatalf("QueueLen = %d, want 2", n)
	}
	close(release)
	s.Drain()
}

func TestDoubleCloseSafe(t *testing.T) {
	s := NewWith(Config{Workers: 2})
	s.Close()
	s.Close()
}

// TestPanicRecovered is the regression test for the seed's panic-unsafety:
// t.Run() without recover and a non-deferred pending.Done meant one
// panicking task crashed the process and would have deadlocked Drain.
func TestPanicRecovered(t *testing.T) {
	s := NewWith(Config{Workers: 2})
	defer s.Close()
	boom := &countingJob{panicWith: "kaboom"}
	s.Submit(&Task{SigID: "boom", Job: boom})

	done := make(chan struct{})
	go func() { s.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain hung after a panicking task")
	}
	if v := boom.panicked; v != "kaboom" {
		t.Fatalf("OnPanic got %v, want kaboom", v)
	}
	if m := s.Metrics(); m.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", m.Panics)
	}
	// The pool must keep serving.
	var ran atomic.Bool
	s.Submit(&Task{SigID: "after", Run: func() { ran.Store(true) }})
	s.Drain()
	if !ran.Load() {
		t.Fatal("pool dead after recovered panic")
	}
}

func TestSubmitRejectsExpiredDeadline(t *testing.T) {
	now := time.Unix(1000, 0)
	s := NewWith(Config{Workers: 1, Now: func() time.Time { return now }})
	defer s.Close()
	if s.Submit(&Task{SigID: "x", Class: ClassDeep, Deadline: now.Add(-time.Second), Run: func() {}}) {
		t.Fatal("Submit accepted an already-expired task")
	}
	if m := s.Metrics().Deep; m.RejectedExpired != 1 || m.DroppedExpired != 0 || m.Submitted != 0 || m.Dropped() != 1 {
		t.Fatalf("metrics = %+v, want one RejectedExpired and nothing else", m)
	}
}

func TestDeadlineExpiredAtDispatch(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	s := NewWith(Config{Workers: 1, Now: clock})
	defer s.Close()

	release := make(chan struct{})
	s.Submit(&Task{SigID: "block", Run: func() { <-release }})
	time.Sleep(10 * time.Millisecond)

	stale := &countingJob{}
	s.Submit(&Task{SigID: "stale", Class: ClassDeep, Deadline: now.Add(time.Second), Job: stale})
	mu.Lock()
	now = now.Add(time.Minute) // task expires while queued
	mu.Unlock()
	close(release)
	s.Drain()

	if stale.ran != 0 {
		t.Fatal("expired task ran")
	}
	if stale.abandoned != 1 {
		t.Fatal("expired task not abandoned")
	}
	if m := s.Metrics(); m.Deep.DroppedExpired != 1 || m.Deep.Ran != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestStressSubmitCloseDrain hammers Submit/Promote/QueueLen/Metrics
// concurrently with Close and Drain; run under -race it is the scheduler's concurrency
// regression test.
func TestStressSubmitCloseDrain(t *testing.T) {
	s := NewWith(Config{Workers: 4, MaxQueue: 64})
	// tasks[g] is goroutine g's last 50 tasks; each slot is written by g alone
	// and read by the next goroutine, which promotes what it finds there.
	var tasks [4][50]atomic.Pointer[Task]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				cls := []Class{ClassShallow, ClassDeep}[i%2]
				task := &Task{SigID: "s", Class: cls, Depth: i % 5, Run: func() {}}
				if i%97 == 0 {
					task.Run = func() { panic("stress") }
				}
				s.Submit(task)
				// Promotions collide across goroutines on purpose: a task
				// promoted by another goroutine while it is dispatched, run or
				// shed at Close must not strand it or corrupt the heap.
				tasks[g][i%50].Store(task)
				if other := tasks[(g+1)%4][(i+g)%50].Load(); other != nil {
					s.Promote(other, i%3)
				}
				if i%25 == 0 {
					_ = s.QueueLen()
					_ = s.Metrics()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		s.Close()
	}()
	wg.Wait()
	done := make(chan struct{})
	go func() { s.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung under concurrent Submit/Close")
	}
	// A Submit that loses the race with Close is refused, not accepted and
	// shed: it must not unbalance the books. The stress loop hits that race
	// about once in 300 runs; these three hit it every time.
	before := s.Metrics()
	for _, cls := range []Class{ClassShallow, ClassDeep} {
		if s.Submit(&Task{SigID: "late", Class: cls, Run: func() {}}) {
			t.Fatalf("Submit of class %v accepted after Close", cls)
		}
	}
	// Accounting must balance: everything accepted either ran or was shed.
	m := s.Metrics()
	for _, cls := range []Class{ClassShallow, ClassDeep} {
		c := m.ByClass(cls)
		if c.Submitted != c.Ran+c.DroppedClosed+c.DroppedExpired {
			t.Fatalf("unbalanced class accounting: %+v", c)
		}
		if got := c.RejectedClosed - before.ByClass(cls).RejectedClosed; got != 1 {
			t.Fatalf("class %v: %d RejectedClosed for one refused Submit", cls, got)
		}
	}
}

// TestJobStandsInForHooks: a Task carrying a Job runs, is abandoned and has
// its panic reported through the one value, never through Run.
func TestJobStandsInForHooks(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	s := NewWith(Config{Workers: 1, Now: clock})
	defer s.Close()
	unused := func() { t.Error("func hook called on a Job task") }

	ok := &countingJob{}
	s.Submit(&Task{SigID: "ok", Job: ok, Run: unused})
	boom := &countingJob{panicWith: "boom"}
	s.Submit(&Task{SigID: "boom", Job: boom, Run: unused})
	s.Drain()
	if ok.ran != 1 || ok.abandoned != 0 || ok.panicked != nil {
		t.Fatalf("plain job: %+v", ok)
	}
	if boom.ran != 1 || boom.panicked != "boom" {
		t.Fatalf("panicking job: %+v", boom)
	}

	release := make(chan struct{})
	s.Submit(&Task{SigID: "block", Run: func() { <-release }})
	stale := &countingJob{}
	s.Submit(&Task{SigID: "stale", Job: stale, Deadline: now.Add(time.Second), Run: unused})
	mu.Lock()
	now = now.Add(time.Minute)
	mu.Unlock()
	close(release)
	s.Drain()
	if stale.ran != 0 || stale.abandoned != 1 {
		t.Fatalf("expired job: %+v", stale)
	}
}

type countingJob struct {
	ran, abandoned int
	panicked       any
	panicWith      any
}

func (j *countingJob) Run() {
	j.ran++
	if j.panicWith != nil {
		panic(j.panicWith)
	}
}
func (j *countingJob) Abandon()      { j.abandoned++ }
func (j *countingJob) OnPanic(v any) { j.panicked = v }

// TestGuessesLeaveAWorker: guesses never hold every worker. With two workers
// and three guesses waiting on a gate, one guess runs; a task submitted
// meanwhile starts on the other worker although it is deeper than every
// guess, and the other guesses wait for the running one. Promote and Close
// reach guesses where they wait.
func TestGuessesLeaveAWorker(t *testing.T) {
	s := NewWith(Config{Workers: 2})
	release := make(chan struct{})
	started := make(chan string, 8)
	var guesses [3]*Task
	for i := 0; i < 3; i++ {
		guesses[i] = &Task{SigID: "g", Class: ClassDeep, Guess: true, Depth: 1,
			Run: func() { started <- "guess"; <-release }}
		s.Submit(guesses[i])
	}
	if got := <-started; got != "guess" {
		t.Fatalf("first start %q", got)
	}
	s.Submit(&Task{SigID: "n", Depth: 5, Run: func() { started <- "near" }})
	select {
	case got := <-started:
		if got != "near" {
			t.Fatalf("a second guess started while one ran on a two-worker pool")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the non-guess task never started")
	}
	s.mu.Lock()
	running, waiting := s.guessing, len(s.guesses)
	s.mu.Unlock()
	if running != 1 || waiting != 2 || s.QueueLen() != 2 {
		t.Fatalf("%d guesses running, %d waiting (queue %d), want 1 and 2", running, waiting, s.QueueLen())
	}
	if !s.Promote(guesses[2], 0) {
		t.Fatal("Promote missed a waiting guess")
	}
	// Close drops the waiting guesses at once, then waits for the running
	// one, which the gate still holds.
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	for deadline := time.Now().Add(10 * time.Second); s.QueueLen() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Close left guesses queued")
		}
	}
	close(release)
	<-closed
	if m := s.Metrics(); m.Deep.DroppedClosed != 2 || m.Promoted != 1 {
		t.Fatalf("metrics %+v, want the two waiting guesses dropped at Close", m)
	}
}

// TestGuessesLeaveAWorkerSixteen: the guess cap on a pool of sixteen. Fifteen
// guesses run, the others wait, and a task submitted meanwhile starts on the
// sixteenth worker although it is deeper than every guess. The head of the
// waiting guesses is counted as held back once.
func TestGuessesLeaveAWorkerSixteen(t *testing.T) {
	s := NewWith(Config{Workers: 16})
	defer s.Close()
	release := make(chan struct{})
	started := make(chan string, 32)
	for i := 0; i < 20; i++ {
		s.Submit(&Task{SigID: "g", Guess: true, Depth: 1, Run: func() { started <- "guess"; <-release }})
	}
	for i := 0; i < 15; i++ {
		if got := <-started; got != "guess" {
			t.Fatalf("start %d is %q", i, got)
		}
	}
	s.Submit(&Task{SigID: "n", Depth: 5, Run: func() { started <- "near" }})
	select {
	case got := <-started:
		if got != "near" {
			t.Fatal("a sixteenth guess started on a sixteen-worker pool")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the non-guess task never started")
	}
	s.mu.Lock()
	running, waiting := s.guessing, len(s.guesses)
	s.mu.Unlock()
	if running != 15 || waiting != 5 {
		t.Fatalf("%d guesses running, %d waiting, want 15 and 5", running, waiting)
	}
	if m := s.Metrics(); m.GuessesHeld != 1 {
		t.Fatalf("guesses held = %d, want the waiting head counted once", m.GuessesHeld)
	}
	close(release)
	s.Drain()
}

// TestQueueWaitSums: a task's queue wait, Submit to dispatch on the
// scheduler's clock, is booked under the class it was submitted in — after a
// Promote and for a guess alike — and a task shed at dispatch books none.
func TestQueueWaitSums(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	s, _, release := stalled(t, Config{Now: clock})
	defer s.Close()

	run := func() {}
	promoted := &Task{SigID: "promoted", Class: ClassDeep, Depth: 3, Run: run}
	s.Submit(promoted)
	s.Submit(&Task{SigID: "guess", Class: ClassShallow, Depth: 1, Guess: true, Run: run})
	s.Submit(&Task{SigID: "stale", Class: ClassDeep, Deadline: now.Add(10 * time.Millisecond), Run: run})
	mu.Lock()
	now = now.Add(30 * time.Millisecond)
	mu.Unlock()
	if !s.Promote(promoted, 0) {
		t.Fatal("Promote missed the queued task")
	}
	close(release)
	s.Drain()

	m := s.Metrics()
	// The stale task was shed and books nothing.
	if m.Deep.Ran != 1 || m.Deep.DroppedExpired != 1 || m.Deep.WaitNanos != int64(30*time.Millisecond) || m.Deep.MeanWait() != 30*time.Millisecond {
		t.Fatalf("deep %+v, want one task that waited 30ms", m.Deep)
	}
	if m.Shallow.Ran != 1 || m.Shallow.WaitNanos != int64(30*time.Millisecond) {
		t.Fatalf("shallow %+v, want the guess's 30ms", m.Shallow)
	}
}
