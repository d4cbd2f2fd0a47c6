package main

import (
	"runtime"
	"time"

	"vswapsim/internal/disk"
	"vswapsim/internal/guest"
	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// Layer probes: small fixed loops over one layer's exported functions,
// sized from the workload's guest and host, each repeated and reported as
// the median ns/op (and allocs/op where a layer allocates per operation).
// They run only in the traced run.

const probeReps = 5

// probeOut is one repetition of a probe: the operations it timed, how
// long they took and how many heap objects they allocated.
type probeOut struct {
	ops    int
	d      time.Duration
	allocs uint64
}

// timed runs fn, which performs ops operations, and measures it. Call it
// from inside a simulated process so only the loop is counted.
func timed(ops int, fn func()) probeOut {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	fn()
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	return probeOut{ops: ops, d: d, allocs: m1.Mallocs - m0.Mallocs}
}

// repeat runs a probe probeReps times and returns the median ns/op and
// allocs/op.
func repeat(probe func() probeOut) (ns, allocs float64) {
	var nss, as []float64
	for i := 0; i < probeReps; i++ {
		o := probe()
		nss = append(nss, float64(o.d.Nanoseconds())/float64(o.ops))
		as = append(as, float64(o.allocs)/float64(o.ops))
	}
	return median(nss), median(as)
}

// probeHandoff: two procs sleep in staggered steps, so every Sleep wakes
// behind the other proc's pending event and takes the queued path — one
// goroutine handoff per switch.
func probeHandoff() probeOut {
	const n = 20000
	env := sim.NewEnv(1)
	var o probeOut
	env.Go("a", func(p *sim.Proc) {
		o = timed(2*n, func() {
			for i := 0; i < n; i++ {
				p.Sleep(2)
			}
		})
	})
	env.Go("b", func(p *sim.Proc) {
		p.Sleep(1)
		for i := 0; i < n; i++ {
			p.Sleep(2)
		}
	})
	env.Run()
	return o
}

// probeInlineSleep: a lone proc's Sleep is always the next event, so it
// takes the inline fast path.
func probeInlineSleep() probeOut {
	const n = 200000
	env := sim.NewEnv(1)
	var o probeOut
	env.Go("a", func(p *sim.Proc) {
		o = timed(n, func() {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
	})
	env.Run()
	return o
}

// probeSignal: one proc waits with a timeout, another broadcasts one tick
// later; an op is one wait plus the broadcast that ends it.
func probeSignal() probeOut {
	const n = 20000
	env := sim.NewEnv(1)
	sig := sim.NewSignal(env)
	var o probeOut
	env.Go("waiter", func(p *sim.Proc) {
		o = timed(n, func() {
			for i := 0; i < n; i++ {
				sig.WaitTimeout(p, 10)
			}
		})
	})
	env.Go("broadcaster", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
			sig.Broadcast()
		}
	})
	env.Run()
	return o
}

// scaledPages converts a nominal paper size in MB to pages the way the
// experiments scale it (with their 8 MB floor).
func scaledPages(mb int, scale float64) int {
	s := int(float64(mb) * scale)
	if s < 8 {
		s = 8
	}
	return s << 20 / 4096
}

// touchProbe is the outcome of one VM touch probe.
type touchProbe struct {
	fault, hit, reclaim probeOut
	scanned, faults     int64 // host reclaim scans and faults during the reclaim phase
}

// probeTouch builds a host and one guest at the workload's sizes and runs
// a guest thread over half the guest's free memory: a first-touch pass
// (guest allocation plus the host EPT fault), resident passes (guest LRU
// touch only), and, in a second guest whose cgroup limit is half the
// touched set, cyclic passes where every touch faults and the host reclaims.
func probeTouch(w workload, scale float64) touchProbe {
	var tp touchProbe
	runVM(w, scale, 0, func(vm *hyper.VM, t *guest.Thread, pr *guest.Process, n int) {
		tp.fault = timed(n, func() { touchAll(t, pr, n) })
		const passes = 8
		tp.hit = timed(passes*n, func() {
			for i := 0; i < passes; i++ {
				touchAll(t, pr, n)
			}
		})
	})
	limit := scaledPages(w.guestMB, scale) / 4
	runVM(w, scale, limit, func(vm *hyper.VM, t *guest.Thread, pr *guest.Process, n int) {
		touchAll(t, pr, n)
		met := vm.M.Met
		s0, f0 := met.Get(metrics.HostPagesScanned), hostFaults(met)
		const passes = 2
		tp.reclaim = timed(passes*n, func() {
			for i := 0; i < passes; i++ {
				touchAll(t, pr, n)
			}
		})
		tp.scanned, tp.faults = met.Get(metrics.HostPagesScanned)-s0, hostFaults(met)-f0
	})
	return tp
}

func hostFaults(met *metrics.Set) int64 {
	return met.Get(metrics.HostMajorFaults) + met.Get(metrics.HostMinorFaults)
}

func touchAll(t *guest.Thread, pr *guest.Process, n int) {
	for i := 0; i < n; i++ {
		t.TouchAnon(pr, i, true)
	}
}

// runVM boots one guest (cgroup limit limitPages, 0 = none) and runs body
// in a guest thread over a process holding half the guest's free pages.
func runVM(w workload, scale float64, limitPages int, body func(vm *hyper.VM, t *guest.Thread, pr *guest.Process, n int)) {
	m := hyper.NewMachine(hyper.MachineConfig{Seed: 1, HostMemPages: scaledPages(w.hostMB, scale)})
	vm := m.NewVM(hyper.VMConfig{
		Name: "probe", MemPages: scaledPages(w.guestMB, scale), LimitPages: limitPages, GuestAPF: true,
	})
	m.Env.Go("main", func(p *sim.Proc) {
		vm.Boot(p)
		pr := vm.OS.NewProcess("probe")
		n := vm.OS.FreePages() / 2
		pr.Reserve(n)
		vm.OS.Go("probe", pr, func(t *guest.Thread) {
			body(vm, t, pr, n)
			m.Shutdown()
		})
	})
	m.Run()
}

// probeVMSetup times building a host and one guest at the workload's
// sizes and booting it, and returns the heap MB it allocated.
func probeVMSetup(w workload, scale float64) (ms, mb float64) {
	var mss, mbs []float64
	for i := 0; i < probeReps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		m := hyper.NewMachine(hyper.MachineConfig{Seed: 1, HostMemPages: scaledPages(w.hostMB, scale)})
		vm := m.NewVM(hyper.VMConfig{Name: "setup", MemPages: scaledPages(w.guestMB, scale), GuestAPF: true})
		m.Env.Go("boot", func(p *sim.Proc) {
			vm.Boot(p)
			m.Shutdown()
		})
		m.Run()
		mss = append(mss, float64(time.Since(t).Nanoseconds())/1e6)
		runtime.ReadMemStats(&m1)
		mbs = append(mbs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	}
	return median(mss), median(mbs)
}

// probeDiskSubmit submits 8-block requests to a fresh drive, sequential
// when seq, else at pseudo-random positions.
func probeDiskSubmit(seq bool) probeOut {
	const n = 100000
	env := sim.NewEnv(1)
	model := disk.Constellation7200()
	dev := disk.NewDevice(env, model, nil)
	span := uint64(model.TotalBlocks - 8)
	x := uint64(0x2545f4914f6cdd1d)
	return timed(n, func() {
		var start uint64
		for i := 0; i < n; i++ {
			if seq {
				start = (start + 8) % span
			} else {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				start = x % span
			}
			kind := disk.Read
			if i%4 == 3 {
				kind = disk.Write
			}
			dev.Submit(kind, int64(start), 8)
		}
	})
}
