package sim

import (
	"fmt"
	"runtime/debug"
	"time"
)

// event is a single scheduled occurrence: a callback (fn), the wakeup of a
// blocked process (proc), or a WaitTimeout timer (tw). Keeping the latter
// two apart from fn lets the loop dispatch process wakeups — by far the
// common case — without allocating a closure per Sleep, Broadcast, Release
// or WaitTimeout.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among simultaneous events
	fn   func()
	proc *Proc
	tw   *timedWait
}

// eventLess orders the heap by (time, insertion sequence).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Env is a discrete-event simulation environment. It owns the virtual
// clock, the pending-event queue and the set of live processes. An Env is
// not safe for concurrent use: exactly one process (or event callback) runs
// at a time, which is what makes runs deterministic.
type Env struct {
	now    Time
	events []*event // binary min-heap ordered by eventLess
	free   []*event // recycled event objects
	seq    uint64
	rng    *RNG

	liveProcs int

	// done carries the baton back to RunUntil when a process holding the
	// loop finds nothing left to run before the deadline; procPanic is the
	// panic, if any, that ended the run on a process goroutine.
	done      chan struct{}
	procPanic interface{}

	// running/deadline mirror the active RunUntil call so that Sleep can
	// advance the clock inline (see Proc.Sleep) without overshooting the
	// caller's deadline.
	running  bool
	deadline Time

	// afterEvent, when set, runs after every completed event callback. The
	// invariant-audit harness hooks here in test mode; it must not mutate
	// simulation state.
	afterEvent func()

	// budget is the progress watchdog installed by SetBudget; noteEvent
	// enforces it on every dequeued event (see watchdog.go).
	budget       Budget
	eventCount   uint64
	stall        uint64
	wallDeadline time.Time
}

// SetAfterEvent installs (or, with nil, removes) the post-event hook.
func (e *Env) SetAfterEvent(fn func()) { e.afterEvent = fn }

// NewEnv returns an environment with the clock at zero and the PRNG seeded
// with seed. The same seed always produces the same run.
func NewEnv(seed uint64) *Env {
	return &Env{rng: NewRNG(seed), done: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic PRNG.
func (e *Env) Rand() *RNG { return e.rng }

// newEvent takes an event object from the pool (or allocates one) and
// stamps it with the next sequence number.
func (e *Env) newEvent(at Time, fn func(), p *Proc) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	e.seq++
	ev.at, ev.seq, ev.fn, ev.proc = at, e.seq, fn, p
	return ev
}

// recycle returns a dequeued event to the pool. Callers must have copied
// out any field they still need.
func (e *Env) recycle(ev *event) {
	ev.fn, ev.proc, ev.tw = nil, nil, nil
	e.free = append(e.free, ev)
}

// push inserts ev into the heap.
func (e *Env) push(ev *event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.events = h
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (e *Env) pop() *event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			least = r
		}
		if !eventLess(h[least], h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

// Schedule arranges for fn to run after delay d. Callbacks run on whichever
// goroutine holds the event loop, so they must not block; use Go for
// blocking logic.
func (e *Env) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.push(e.newEvent(e.now.Add(d), fn, nil))
}

// scheduleProc arranges for p to be dispatched after delay d, without the
// closure a Schedule would cost.
func (e *Env) scheduleProc(d Duration, p *Proc) {
	e.push(e.newEvent(e.now.Add(d), nil, p))
}

// ScheduleAt arranges for fn to run at absolute time t (not before now).
func (e *Env) ScheduleAt(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.Schedule(t.Sub(e.now), fn)
}

// Run drives the simulation until no events remain. It returns the final
// virtual time. If processes remain blocked on signals that can never fire,
// Run panics, as that is always a bug in the model.
func (e *Env) Run() Time {
	return e.RunUntil(Time(1<<62 - 1))
}

// RunUntil drives the simulation until the event queue is empty or the next
// event would fire after the deadline. Events exactly at the deadline run.
// A deadline before Now runs nothing and leaves the clock where it is.
//
// RunUntil only starts and finishes the loop: it runs events until the
// first process wakeup and hands the baton to that process, which carries
// the loop on (see Proc.block). The last holder hands it back on e.done.
func (e *Env) RunUntil(deadline Time) Time {
	if deadline < e.now {
		return e.now
	}
	e.running = true
	e.deadline = deadline
	defer func() { e.running = false }()
	if p := e.loop(); p != nil {
		p.resume <- struct{}{}
		<-e.done
		if r := e.procPanic; r != nil {
			e.procPanic = nil
			panic(r)
		}
	}
	if len(e.events) > 0 {
		e.now = deadline
		return e.now
	}
	if e.liveProcs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events at %v", e.liveProcs, e.now))
	}
	return e.now
}

// loop runs events in (at, seq) order until it dequeues a process wakeup,
// which it returns; the caller hands that process the CPU, and the
// wakeup's afterEvent hook runs when the process next blocks or exits.
// loop returns nil when the queue is empty or the next event lies past the
// deadline.
func (e *Env) loop() *Proc {
	for len(e.events) > 0 {
		next := e.events[0]
		if next.at > e.deadline {
			return nil
		}
		e.pop()
		if next.at < e.now {
			panic("sim: time went backwards")
		}
		advanced := next.at > e.now
		e.now = next.at
		fn, p, tw := next.fn, next.proc, next.tw
		e.recycle(next)
		e.noteEvent(advanced)
		switch {
		case p != nil:
			return p
		case tw != nil:
			if tw.expire() {
				return tw.proc
			}
		default:
			fn()
		}
		if e.afterEvent != nil {
			e.afterEvent()
		}
	}
	return nil
}

// pass is the handoff point of a process goroutine that has finished its
// turn: it runs the current event's afterEvent hook and the loop, then
// passes the baton to the next process, or back to RunUntil. It reports
// whether the next wakeup is self's own, in which case self simply keeps
// running. A panic raised on the loop — a callback's or a watchdog
// breach — is recovered here, so it never unwinds self's body, and is
// re-raised unchanged by RunUntil.
func (e *Env) pass(self *Proc) bool {
	next, r := e.hold()
	switch {
	case r != nil:
		e.procPanic = r
	case next == self:
		return true
	case next != nil:
		next.resume <- struct{}{}
		return false
	}
	e.done <- struct{}{}
	return false
}

// hold runs the afterEvent hook and the loop on behalf of a process,
// returning the next process to run or the panic that stopped the loop.
func (e *Env) hold() (next *Proc, r interface{}) {
	defer func() { r = recover() }()
	if e.afterEvent != nil {
		e.afterEvent()
	}
	return e.loop(), nil
}

// Idle reports whether no events are pending.
func (e *Env) Idle() bool { return len(e.events) == 0 }

// Proc is a simulated process: a goroutine that runs exclusively between
// blocking points. All blocking methods must be called from the process's
// own goroutine.
type Proc struct {
	env    *Env
	name   string
	resume chan struct{} // baton: receiving it means this process runs
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go starts fn as a new simulated process at the current virtual time.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		env:    e,
		name:   name,
		resume: make(chan struct{}),
	}
	e.liveProcs++
	go func() {
		<-p.resume // wait for first dispatch
		defer p.exit()
		fn(p)
	}()
	e.scheduleProc(0, p)
	return p
}

// exit retires a returned or panicked process and passes the baton on.
// A panic in the process body ends the run: it is recorded for RunUntil
// to re-raise. Watchdog breaches stay typed (*BudgetError) so the
// experiment layer classifies them the same whichever goroutine held the
// loop when they fired.
func (p *Proc) exit() {
	e := p.env
	e.liveProcs--
	if r := recover(); r != nil {
		if be, ok := r.(*BudgetError); ok {
			e.procPanic = be
		} else {
			e.procPanic = fmt.Sprintf("%v\n\nprocess goroutine stack:\n%s", r, debug.Stack())
		}
		e.done <- struct{}{}
		return
	}
	e.pass(p)
}

// block suspends the calling process until its next wakeup event. The
// process carries the event loop itself until that event or another
// process's wakeup comes up, so a switch costs one channel send.
func (p *Proc) block() {
	if !p.env.pass(p) {
		<-p.resume
	}
}

// Sleep suspends the process for virtual duration d.
//
// Fast path: when the wakeup would be the very next event processed — no
// pending event fires at or before it — running the loop is pure overhead
// (a heap push and pop), so the clock advances inline and the process
// keeps running. The observable sequence is bit-identical to the queued
// path: the skipped wakeup is still counted and budget-checked by
// noteEvent, the current event's afterEvent hook still runs first, and no
// other event could have run in between (nothing is queued in the window,
// and nothing can be scheduled into it because no other code runs).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.env
	wake := e.now.Add(d)
	if e.running && wake <= e.deadline &&
		(len(e.events) == 0 || wake < e.events[0].at) {
		if e.afterEvent != nil {
			e.afterEvent()
		}
		advanced := wake > e.now
		e.now = wake
		e.noteEvent(advanced)
		return
	}
	e.scheduleProc(d, p)
	p.block()
}

// SleepUntil suspends the process until absolute virtual time t.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.env.now {
		return
	}
	p.Sleep(t.Sub(p.env.now))
}

// Signal is a broadcast condition in virtual time. Processes wait on it;
// any code may Broadcast to wake all current waiters at the present time.
// The zero value is not usable; create signals with NewSignal.
type Signal struct {
	env     *Env
	waiters []*Proc
	timed   []*timedWait
}

// timedWait tracks one WaitTimeout waiter: whoever resolves it first —
// Broadcast or the timer — sets done.
type timedWait struct {
	sig     *Signal
	proc    *Proc
	done    bool
	expired bool
}

// expire resolves the wait on its timer event. It reports whether the
// timer won; a timer that fires after a Broadcast is a no-op.
func (w *timedWait) expire() bool {
	if w.done {
		return false
	}
	w.done = true
	w.expired = true
	s := w.sig
	for i, x := range s.timed {
		if x == w {
			s.timed = append(s.timed[:i], s.timed[i+1:]...)
			break
		}
	}
	return true
}

// NewSignal returns a signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Wait suspends p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.block()
}

// WaitTimeout suspends p until the next Broadcast or until d elapses,
// whichever comes first, and reports whether the signal fired. The timer
// event always runs — as a no-op when the waiter was already woken — so
// the run's final virtual time does not depend on which path won.
func (s *Signal) WaitTimeout(p *Proc, d Duration) (signaled bool) {
	if d < 0 {
		panic("sim: negative delay")
	}
	w := &timedWait{sig: s, proc: p}
	s.timed = append(s.timed, w)
	e := s.env
	ev := e.newEvent(e.now.Add(d), nil, nil)
	ev.tw = w
	e.push(ev)
	p.block()
	return !w.expired
}

// Broadcast wakes every process currently waiting on the signal. Waiters
// resume in the order they began waiting, at the current virtual time;
// plain waiters first, then timed waiters.
func (s *Signal) Broadcast() {
	waiters := s.waiters
	s.waiters = s.waiters[:0]
	for _, w := range waiters {
		s.env.scheduleProc(0, w)
	}
	timed := s.timed
	s.timed = s.timed[:0]
	for _, w := range timed {
		w.done = true
		s.env.scheduleProc(0, w.proc)
	}
}

// Pending reports how many processes are waiting on the signal.
func (s *Signal) Pending() int { return len(s.waiters) + len(s.timed) }
