package hostmm

import (
	"testing"

	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// TestRemapOverwriteLostRace pins the fix for the fleetN crash (200-guest
// vswapper cell, dynamic/vswapper/guests200/seed43d0e4fc546549ca): the
// Preventer's full-overwrite fast path used BeginEmulation followed by
// EmulationRemap, whose frame charge can block in direct reclaim — leaving
// the page Emulated with no emulation buffer attached, so any concurrent
// accessor routed to Preventer.OnAccess crashed on the nil buffer.
// RemapOverwrite must instead keep the non-resident state across the
// blocking charge and, when another thread resolves the page meanwhile,
// give the frame back and report false so the caller retries.
func TestRemapOverwriteLostRace(t *testing.T) {
	r := newRig(t, 1000, 10)
	pages := make([]*Page, 20)
	var victim *Page
	resolved := false
	r.run(t, func(p *sim.Proc) {
		for i := range pages {
			pages[i] = r.mgr.NewPage(r.cg, i)
			r.mgr.FirstTouch(p, pages[i], GuestCtx)
		}
		for _, pg := range pages {
			if pg.State == SwappedOut {
				victim = pg
				break
			}
		}
		if victim == nil {
			t.Fatal("no page swapped out")
		}
		p.Sleep(10 * sim.Second) // drain writeback; cg stays at its limit

		// The cgroup is at its limit, so the overwrite below must reclaim
		// before it can charge, sleeping for the scan time. This resolver
		// fires inside that window and discards the page, as a balloon
		// take or mmap-over would.
		r.env.Go("resolver", func(q *sim.Proc) {
			q.Sleep(sim.Nanosecond)
			// RemapOverwrite never buffers, so any Emulated state seen
			// here would be a bufferless one.
			if victim.State == Emulated {
				t.Error("bufferless Emulated page observable during blocked charge")
				return
			}
			if victim.State != SwappedOut {
				t.Errorf("charge did not block: victim already %v", victim.State)
				return
			}
			r.mgr.Forget(victim)
			resolved = true
		})
		if r.mgr.RemapOverwrite(p, victim) {
			t.Fatal("RemapOverwrite claimed success after losing the race")
		}
		if !resolved {
			t.Fatal("resolver never ran inside the charge window")
		}
		if victim.State != Untouched {
			t.Fatalf("victim state %v, want Untouched from the concurrent resolve", victim.State)
		}
		if got := r.cg.Resident(); got > 10 {
			t.Fatalf("lost-race frame not given back: resident=%d limit=10", got)
		}
	})
}

// TestRemapOverwriteUncontended covers the winning path: the overwritten
// page becomes a plain dirty anonymous page, its swap slot is released,
// and the remap is counted.
func TestRemapOverwriteUncontended(t *testing.T) {
	r := newRig(t, 1000, 10)
	pages := make([]*Page, 20)
	r.run(t, func(p *sim.Proc) {
		for i := range pages {
			pages[i] = r.mgr.NewPage(r.cg, i)
			r.mgr.FirstTouch(p, pages[i], GuestCtx)
		}
		var victim *Page
		for _, pg := range pages {
			if pg.State == SwappedOut {
				victim = pg
				break
			}
		}
		if victim == nil {
			t.Fatal("no page swapped out")
		}
		slot := victim.SwapSlot
		if !r.mgr.RemapOverwrite(p, victim) {
			t.Fatal("uncontended RemapOverwrite failed")
		}
		if victim.State != ResidentAnon || !victim.Dirty || !victim.EPT {
			t.Fatalf("state=%v dirty=%v ept=%v", victim.State, victim.Dirty, victim.EPT)
		}
		if victim.SwapSlot != -1 {
			t.Fatal("swap slot not released")
		}
		if r.swap.Owner(slot) != nil {
			t.Fatal("freed slot still owned")
		}
		if r.met.Get(metrics.PreventerRemaps) != 1 {
			t.Fatal("remap not counted")
		}
	})
}
