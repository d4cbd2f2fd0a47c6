package main

import (
	"syscall"

	"vswapsim/internal/metrics"
)

// perLayer fills the traced run's metrics: per-layer numbers from the
// traced cells' spans, memory statistics and CPU profile, the layer
// probes, and the run's deterministic counts.
func (b *bench) perLayer(r *result, untraced, traced []*cellOut, prof *profiler) {
	w, scale := b.cfg.workload, b.cfg.scale
	wall := func(c *cellOut) float64 { return c.wall }
	stage := func(name string, unit float64) func(*cellOut) float64 {
		return func(c *cellOut) float64 { return c.stages[name] * unit }
	}
	probeRun := len(b.cellTraces) + 1
	probe := func(name string, fn func()) {
		b.tr.run = probeRun
		probeRun++
		id := b.tr.begin("probe."+name, -1)
		fn()
		b.tr.end(id)
	}

	// sim: process handoff, inline sleep, timed signal wait.
	var handoffNS, handoffAllocs, inlineNS, signalNS float64
	probe("sim.handoff", func() { handoffNS, handoffAllocs = repeat(probeHandoff) })
	probe("sim.inline_sleep", func() { inlineNS, _ = repeat(probeInlineSleep) })
	probe("sim.signal_wait", func() { signalNS, _ = repeat(probeSignal) })
	r.add("sim.handoff_ns", "ns", handoffNS)
	r.add("sim.handoff_allocs", "count", handoffAllocs)
	r.add("sim.inline_sleep_ns", "ns", inlineNS)
	r.add("sim.signal_wait_ns", "ns", signalNS)
	r.add("cpu.sched_share", "fraction", prof.share(bucketSched))

	// guest / hyper / hostmm: the page path.
	var hit, fault, reclaim, scannedPerFault []float64
	probe("page.touch", func() {
		for i := 0; i < probeReps; i++ {
			tp := probeTouch(w, scale)
			hit = append(hit, nsPerOp(tp.hit))
			fault = append(fault, nsPerOp(tp.fault))
			reclaim = append(reclaim, nsPerOp(tp.reclaim))
			scannedPerFault = append(scannedPerFault, ratio(float64(tp.scanned), float64(tp.faults)))
		}
	})
	r.add("guest.touch_hit_ns", "ns", median(hit))
	r.add("hyper.touch_fault_ns", "ns", median(fault))
	r.add("hostmm.touch_reclaim_ns", "ns", median(reclaim))
	r.add("hostmm.scanned_per_fault", "pages", median(scannedPerFault))
	r.add("hostmm.ns_per_fault", "ns", medianOf(untraced, func(c *cellOut) float64 {
		return ratio(c.wall*1e9, float64(c.counters[metrics.HostMajorFaults]+c.counters[metrics.HostMinorFaults]))
	}))
	r.add("cpu.hostmm_share", "fraction", prof.share("hostmm"))
	r.add("cpu.guest_share", "fraction", prof.share("guest"))
	r.add("cpu.hyper_share", "fraction", prof.share("hyper"))

	// Construction and the Go runtime.
	var setupMS, setupMB float64
	probe("hyper.vm_setup", func() { setupMS, setupMB = probeVMSetup(w, scale) })
	r.add("hyper.vm_setup_ms", "ms", setupMS)
	r.add("hyper.vm_setup_mb", "MiB", setupMB)
	r.add("go.mallocs", "count", medianOf(traced, func(c *cellOut) float64 { return c.mallocs }))
	r.add("go.gc_cycles", "count", medianOf(traced, func(c *cellOut) float64 { return c.gcs }))
	r.add("go.gc_pause_ms", "ms", medianOf(traced, func(c *cellOut) float64 { return c.gcPause }))
	r.add("cpu.gc_alloc_share", "fraction", prof.share(bucketGC))
	r.add("cpu.sim_share", "fraction", prof.share("sim"))
	r.add("cpu.other_share", "fraction", 1-prof.share(bucketSched)-prof.share(bucketGC)-
		prof.share("hostmm")-prof.share("guest")-prof.share("hyper")-prof.share("sim"))
	r.add("cpu.profile_samples", "count", float64(prof.samples))

	// disk.
	var seqNS, randNS float64
	probe("disk.submit", func() {
		seqNS, _ = repeat(func() probeOut { return probeDiskSubmit(true) })
		randNS, _ = repeat(func() probeOut { return probeDiskSubmit(false) })
	})
	r.add("disk.submit_ns", "ns", (seqNS+randNS)/2)
	r.add("disk.submit_seq_ns", "ns", seqNS)
	r.add("disk.submit_rand_ns", "ns", randNS)

	// experiment: the job path's public calls, from the traced cells.
	r.add("experiment.run_s", "s", medianOf(traced, stage(stRunAll, 1)))
	r.add("experiment.build_json_ms", "ms", medianOf(traced, func(c *cellOut) float64 {
		return (c.stages[stBuildJSON] + c.stages[stBuildDoc]) * 1e3
	}))
	r.add("experiment.marshal_ms", "ms", medianOf(traced, stage(stMarshal, 1e3)))
	r.add("experiment.render_ms", "ms", medianOf(traced, stage(stRender, 1e3)))
	r.add("experiment.fingerprint_ms", "ms", medianOf(traced, stage(stFinger, 1e3)))
	r.add("experiment.doc_kb", "KiB", medianOf(traced, func(c *cellOut) float64 { return c.docKB }))

	// Deterministic counts per cell, from the first correct cell (every
	// correct cell has the same).
	var counts map[string]int64
	if b.first != nil {
		counts = b.first.counters
	}
	per := func(k string) float64 { return float64(counts[k]) }
	r.add("cells", "count", per(runsCounter))
	r.add("hostmm.faults", "count", per(metrics.HostMajorFaults)+per(metrics.HostMinorFaults))
	r.add("hostmm.scanned", "count", per(metrics.HostPagesScanned))
	r.add("hostmm.reclaim_ratio", "fraction", ratio(per(metrics.HostPagesReclaimed), per(metrics.HostPagesScanned)))
	r.add("hostmm.swap_in_pages", "count", per(metrics.HostSwapIns))
	r.add("hostmm.swap_out_pages", "count", per(metrics.HostSwapOuts))
	r.add("hostmm.prefetch_hit_ratio", "fraction", ratio(per(metrics.HostPrefetchHits),
		per(metrics.HostSwapPrefetched)+per(metrics.HostFilePrefetched)))
	r.add("guest.major_faults", "count", per(metrics.GuestMajorFaults))
	r.add("disk.ops", "count", per(metrics.DiskOps))
	r.add("disk.sectors", "count", per(metrics.DiskReadSectors)+per(metrics.DiskWriteSectors))
	r.add("core.mapper_assoc", "count", per(metrics.MapperEstablish))
	r.add("core.preventer_remaps", "count", per(metrics.PreventerRemaps))
	r.add("patho.silent_writes", "count", per(metrics.SilentSwapWrites))
	r.add("patho.stale_reads", "count", per(metrics.StaleSwapReads))
	r.add("patho.false_reads", "count", per(metrics.FalseSwapReads))
	r.add("balloon.inflate_pages", "count", per(metrics.BalloonInflatePages))
	r.add("cluster.migrations", "count", per(metrics.ClusterMigrations))
	r.add("cluster.kills", "count", per(metrics.ClusterKills))

	// The traced run itself.
	r.add("trace.overhead_frac", "fraction", ratio(medianOf(traced, wall), medianOf(untraced, wall))-1)
	r.add("trace.spans", "count", float64(len(b.tr.spans)))
	r.add("proc.peak_rss_mb", "MiB", peakRSSMB())
	r.add("fail_frac", "fraction", float64(r.Failed)/float64(r.Attempted))
	if prof.err != nil {
		r.notes = append(r.notes, "cpu profile failed: "+prof.err.Error())
	}
}

func nsPerOp(o probeOut) float64 { return ratio(float64(o.d.Nanoseconds()), float64(o.ops)) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
