package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv(1)
	var order []int
	env.Schedule(3*Millisecond, func() { order = append(order, 3) })
	env.Schedule(1*Millisecond, func() { order = append(order, 1) })
	env.Schedule(2*Millisecond, func() { order = append(order, 2) })
	end := env.Run()
	if end != Time(3*Millisecond) {
		t.Fatalf("end time = %v, want 3ms", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	env := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.Schedule(Millisecond, func() { order = append(order, i) })
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO among ties)", i, v, i)
		}
	}
}

func TestProcSleep(t *testing.T) {
	env := NewEnv(1)
	var wake Time
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Second)
		wake = p.Now()
	})
	env.Run()
	if wake != Time(5*Second) {
		t.Fatalf("woke at %v, want 5s", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	env := NewEnv(1)
	var trace []string
	env.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2 * Millisecond)
		trace = append(trace, "a1")
	})
	env.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1 * Millisecond)
		trace = append(trace, "b1")
		p.Sleep(2 * Millisecond)
		trace = append(trace, "b2")
	})
	env.Run()
	want := []string{"a0", "b0", "b1", "a1", "b2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	env := NewEnv(1)
	sig := NewSignal(env)
	woken := 0
	for i := 0; i < 4; i++ {
		env.Go("waiter", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	env.Go("caller", func(p *Proc) {
		p.Sleep(Second)
		if sig.Pending() != 4 {
			t.Errorf("pending = %d, want 4", sig.Pending())
		}
		sig.Broadcast()
	})
	env.Run()
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

func TestSignalWakeupOrder(t *testing.T) {
	env := NewEnv(1)
	sig := NewSignal(env)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Go("w", func(p *Proc) {
			p.Sleep(Duration(i) * Microsecond) // stagger wait registration
			sig.Wait(p)
			order = append(order, i)
		})
	}
	env.Go("caller", func(p *Proc) {
		p.Sleep(Second)
		sig.Broadcast()
	})
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("wakeup order = %v, want ascending", order)
		}
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	env := NewEnv(1)
	fired := false
	env.Schedule(10*Second, func() { fired = true })
	end := env.RunUntil(Time(3 * Second))
	if fired {
		t.Fatal("event past deadline fired")
	}
	if end != Time(3*Second) {
		t.Fatalf("end = %v, want 3s", end)
	}
	env.Run()
	if !fired {
		t.Fatal("event did not fire after resuming")
	}
}

// TestRunUntilPastDeadlineKeepsClock: a deadline before Now runs nothing
// and must not move the clock backwards.
func TestRunUntilPastDeadlineKeepsClock(t *testing.T) {
	env := NewEnv(1)
	fired := false
	env.Schedule(10*Millisecond, func() {})
	env.Schedule(20*Millisecond, func() { fired = true })
	env.RunUntil(Time(10 * Millisecond))
	if end := env.RunUntil(Time(5 * Millisecond)); end != Time(10*Millisecond) || env.Now() != end {
		t.Fatalf("RunUntil(5ms) at 10ms returned %v with Now() = %v, want 10ms for both", end, env.Now())
	}
	if fired {
		t.Fatal("event past the deadline fired")
	}
	if end := env.Run(); end != Time(20*Millisecond) || !fired {
		t.Fatalf("Run ended at %v (fired %v), want the 20ms event to fire", end, fired)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on deadlock")
		}
	}()
	env := NewEnv(1)
	sig := NewSignal(env)
	env.Go("stuck", func(p *Proc) { sig.Wait(p) })
	env.Run()
}

func TestNestedSpawn(t *testing.T) {
	env := NewEnv(1)
	var childDone Time
	env.Go("parent", func(p *Proc) {
		p.Sleep(Second)
		p.Env().Go("child", func(c *Proc) {
			c.Sleep(Second)
			childDone = c.Now()
		})
		p.Sleep(5 * Second)
	})
	env.Run()
	if childDone != Time(2*Second) {
		t.Fatalf("child finished at %v, want 2s", childDone)
	}
}

func TestSleepUntilPast(t *testing.T) {
	env := NewEnv(1)
	env.Go("p", func(p *Proc) {
		p.Sleep(Second)
		p.SleepUntil(Time(500 * Millisecond)) // in the past: no-op
		if p.Now() != Time(Second) {
			t.Errorf("now = %v, want 1s", p.Now())
		}
	})
	env.Run()
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		env := NewEnv(42)
		var stamps []Time
		for i := 0; i < 8; i++ {
			env.Go("p", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Duration(env.Rand().Intn(1000)+1) * Microsecond)
					stamps = append(stamps, p.Now())
				}
			})
		}
		env.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(7)
	f := r.Fork()
	// Draw from the fork; the parent's sequence after forking must be the
	// same regardless of how much the fork is used.
	want := NewRNG(7)
	want.Uint64() // account for the draw Fork consumed
	for i := 0; i < 10; i++ {
		f.Uint64()
	}
	for i := 0; i < 10; i++ {
		if r.Uint64() != want.Uint64() {
			t.Fatal("fork perturbed parent stream")
		}
	}
}

func TestDurationSeconds(t *testing.T) {
	if s := (2500 * Millisecond).Seconds(); s != 2.5 {
		t.Fatalf("Seconds() = %v, want 2.5", s)
	}
}
