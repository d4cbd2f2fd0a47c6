package sim

import (
	"errors"
	"strings"
	"testing"
)

// The event loop is held either by RunUntil (from the start of each call
// until the first process wakeup) or by a blocked process, which runs it on
// its own goroutine and passes the baton on. These tests pin the contract
// both holders share. Each case runs once with the loop held by a process
// and once with RunUntil holding it: there a first RunUntil stops just
// before the event under test, so the next call dequeues it itself.
var holders = []struct {
	name  string
	split bool
}{
	{"held by RunUntil", true},
	{"held by a process", false},
}

// mixedRun drives queued sleeps, inline sleeps, callbacks, an expiring and
// a stale WaitTimeout timer, and records Now() at every afterEvent call.
// With split, it advances in 1µs RunUntil steps before the final Run.
func mixedRun(split bool) (hooks []Time, env *Env) {
	env = NewEnv(1)
	env.SetAfterEvent(func() { hooks = append(hooks, env.Now()) })
	sig := NewSignal(env)
	us := Microsecond
	env.Schedule(0, func() {})
	env.Go("a", func(p *Proc) {
		p.Sleep(3 * us)
		p.Sleep(us)
		sig.WaitTimeout(p, 10*us) // broadcast at 5µs: stale timer at 14µs
		p.Sleep(2 * us)
		sig.WaitTimeout(p, 4*us) // expires at 11µs
		p.Sleep(30 * us)
	})
	env.Go("b", func(p *Proc) {
		p.Sleep(us)
		env.Schedule(us, func() {})
		p.Sleep(4 * us)
		sig.Broadcast()
		env.Schedule(0, func() {})
		p.Sleep(20 * us)
		p.Sleep(us) // inline: nothing else is pending
		p.Sleep(us)
	})
	if split {
		for !env.Idle() {
			env.RunUntil(env.Now() + Time(us))
		}
	}
	env.Run()
	return hooks, env
}

func TestBatonAfterEventOncePerEvent(t *testing.T) {
	// Recorded with the scheduler-goroutine dispatch this loop replaced.
	want := []Time{0, 0, 0, 1000, 2000, 3000, 4000, 5000, 5000, 5000,
		7000, 11000, 14000, 25000, 26000, 27000, 41000}
	for _, h := range holders {
		t.Run(h.name, func(t *testing.T) {
			hooks, env := mixedRun(h.split)
			if uint64(len(hooks)) != env.EventCount() {
				t.Fatalf("afterEvent ran %d times for %d events", len(hooks), env.EventCount())
			}
			if len(hooks) != len(want) {
				t.Fatalf("hook times = %v, want %v", hooks, want)
			}
			for i := range want {
				if hooks[i] != want[i] {
					t.Fatalf("hook times = %v, want %v", hooks, want)
				}
			}
		})
	}
}

// panicFrom runs fn and returns the value it panics with.
func panicFrom(fn func()) (r interface{}) {
	defer func() { r = recover() }()
	fn()
	return nil
}

func TestBatonCallbackPanicSurfacesUnchanged(t *testing.T) {
	boom := errors.New("boom")
	for _, h := range holders {
		t.Run(h.name, func(t *testing.T) {
			env := NewEnv(1)
			deferRan := false
			env.Go("holder", func(p *Proc) {
				defer func() { deferRan = true }()
				env.Schedule(3*Microsecond, func() { panic(boom) })
				p.Sleep(5 * Microsecond)
			})
			if h.split {
				env.RunUntil(Time(2 * Microsecond))
			}
			if r := panicFrom(func() { env.Run() }); r != boom {
				t.Fatalf("Run panicked with %v, want the callback's value", r)
			}
			if deferRan {
				t.Fatal("the panic unwound the parked holder's body")
			}
		})
	}
}

func TestBatonBudgetBreachStaysTyped(t *testing.T) {
	for _, h := range holders {
		t.Run(h.name, func(t *testing.T) {
			env := NewEnv(1)
			env.SetBudget(Budget{MaxEvents: 5})
			for i := 1; i <= 10; i++ {
				env.Schedule(Duration(i)*Microsecond, func() {})
			}
			// Event 1 starts the process; its queued sleep makes it hold
			// the loop over the callbacks that follow.
			env.Go("holder", func(p *Proc) { p.Sleep(100 * Microsecond) })
			if h.split {
				env.RunUntil(Time(4500 * Nanosecond)) // events 1-5
			}
			be := budgetErrFrom(t, func() { env.Run() })
			if be == nil || be.Kind != BreachMaxEvents || be.Events != 6 {
				t.Fatalf("breach = %+v, want max-events at event 6", be)
			}
		})
	}
}

func TestBatonRunUntilResumesParkedProcs(t *testing.T) {
	trace := func(step Duration) []Time {
		env := NewEnv(1)
		var stamps []Time
		for i := 1; i <= 3; i++ {
			d := Duration(i) * Microsecond
			env.Go("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(d)
					stamps = append(stamps, p.Now())
				}
			})
		}
		if step > 0 {
			for !env.Idle() {
				if end := env.RunUntil(env.Now() + Time(step)); env.Now() != end {
					t.Fatalf("RunUntil returned %v, Now() = %v", end, env.Now())
				}
			}
		}
		env.Run()
		return stamps
	}
	want := trace(0)
	for _, step := range []Duration{700 * Nanosecond, Microsecond, 2500 * Nanosecond} {
		got := trace(step)
		if len(got) != len(want) {
			t.Fatalf("step %v: %d wakeups, want %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %v: wakeups %v, want %v", step, got, want)
			}
		}
	}
}

func TestBatonDeadlockDetectedAfterHandoff(t *testing.T) {
	for _, h := range holders {
		t.Run(h.name, func(t *testing.T) {
			env := NewEnv(1)
			sig := NewSignal(env)
			env.Go("stuck", func(p *Proc) {
				p.Sleep(5 * Microsecond)
				sig.Wait(p)
			})
			env.Schedule(10*Microsecond, func() {})
			if h.split {
				env.RunUntil(Time(7 * Microsecond))
			}
			r := panicFrom(func() { env.Run() })
			if msg, _ := r.(string); !strings.Contains(msg, "deadlock: 1 process") {
				t.Fatalf("Run panicked with %v, want a deadlock report", r)
			}
		})
	}
}

// TestWaitTimeoutAllocs: the timer is a plain event from the pool, so a
// wait ended by a Broadcast allocates only its timedWait.
func TestWaitTimeoutAllocs(t *testing.T) {
	env := NewEnv(1)
	sig := NewSignal(env)
	const runs = 200
	var allocs float64
	env.Go("waiter", func(p *Proc) {
		allocs = testing.AllocsPerRun(runs, func() { sig.WaitTimeout(p, 10) })
	})
	env.Go("broadcaster", func(p *Proc) {
		for i := 0; i <= runs; i++ { // AllocsPerRun adds a warm-up run
			p.Sleep(1)
			sig.Broadcast()
		}
	})
	env.Run()
	if allocs > 1 {
		t.Fatalf("WaitTimeout+Broadcast allocates %v objects, want at most 1", allocs)
	}
}

// BenchmarkLayer reports the dispatch cost of the event loop, shaped like
// the sim probes of the host-cost benchmark (perfbench/probes.go).
func BenchmarkLayer(b *testing.B) {
	// Two procs sleep in staggered steps, so every Sleep wakes behind the
	// other proc's pending event and takes the queued path: an op is one
	// process switch.
	b.Run("sim/handoff", func(b *testing.B) {
		b.ReportAllocs()
		n := (b.N + 1) / 2
		env := NewEnv(1)
		env.Go("a", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(2)
			}
		})
		env.Go("b", func(p *Proc) {
			p.Sleep(1)
			for i := 0; i < n; i++ {
				p.Sleep(2)
			}
		})
		env.Run()
	})
	// A lone proc's Sleep is always the next event: the inline fast path.
	b.Run("sim/inline_sleep", func(b *testing.B) {
		b.ReportAllocs()
		env := NewEnv(1)
		env.Go("a", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(1)
			}
		})
		env.Run()
	})
	// One proc waits with a timeout, another broadcasts one tick later:
	// an op is one wait plus the broadcast that ends it.
	b.Run("sim/signal_wait", func(b *testing.B) {
		b.ReportAllocs()
		env := NewEnv(1)
		sig := NewSignal(env)
		env.Go("waiter", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				sig.WaitTimeout(p, 10)
			}
		})
		env.Go("broadcaster", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(1)
				sig.Broadcast()
			}
		})
		env.Run()
	})
}
