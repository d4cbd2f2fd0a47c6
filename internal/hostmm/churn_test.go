package hostmm

import (
	"testing"

	"vswapsim/internal/disk"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// checkOwnerInvariant asserts the slot allocator's core bookkeeping rule:
// the owner table tracks exactly the allocated slots.
func checkOwnerInvariant(t *testing.T, s *SwapArea) {
	t.Helper()
	if s.ownedSlots() != s.inUse {
		t.Fatalf("owner table size %d != inUse %d", s.ownedSlots(), s.inUse)
	}
}

// TestSwapAreaChurnOwnerBookkeeping drives the allocator through its three
// paths — cluster continuation, fresh cluster scan, and the fragmented
// lowest-free fallback — and asserts the owner map never leaks: after every
// slot is freed its size is exactly zero again.
func TestSwapAreaChurnOwnerBookkeeping(t *testing.T) {
	layout := disk.NewLayout(1 << 20)
	s := NewSwapArea(layout.Reserve("swap", 4*SlotsPerCluster))
	total := s.Slots()

	// Fill the whole area through the cluster paths.
	pages := make([]*Page, total)
	for i := range pages {
		pages[i] = &Page{ID: i, SwapSlot: -1}
		slot := s.Alloc(pages[i])
		if slot < 0 {
			t.Fatalf("area full after %d allocs, want %d", i, total)
		}
		if s.Owner(slot) != pages[i] {
			t.Fatalf("slot %d owner mismatch", slot)
		}
		pages[i].SwapSlot = slot
	}
	checkOwnerInvariant(t, s)
	if s.Alloc(&Page{SwapSlot: -1}) != -1 {
		t.Fatal("alloc on a full area must fail")
	}
	checkOwnerInvariant(t, s)

	// Free every other slot: the area fragments (no free cluster remains),
	// so refills must go through the lowest-free fallback.
	for slot := int64(0); slot < total; slot += 2 {
		s.Free(slot)
	}
	checkOwnerInvariant(t, s)
	if !s.fragmented() {
		t.Fatal("alternating frees should fragment the area")
	}
	refill := make([]*Page, 0, total/2)
	for {
		pg := &Page{SwapSlot: -1}
		slot := s.Alloc(pg)
		if slot < 0 {
			break
		}
		pg.SwapSlot = slot
		refill = append(refill, pg)
	}
	if int64(len(refill)) != total/2 {
		t.Fatalf("refilled %d slots, want %d", len(refill), total/2)
	}
	checkOwnerInvariant(t, s)

	// Drain everything; the owner map must return to exactly zero.
	for slot := int64(1); slot < total; slot += 2 {
		s.Free(slot)
	}
	for _, pg := range refill {
		s.Free(pg.SwapSlot)
	}
	checkOwnerInvariant(t, s)
	if s.InUse() != 0 || s.ownedSlots() != 0 {
		t.Fatalf("after draining: inUse=%d owner=%d, want 0/0", s.InUse(), s.ownedSlots())
	}
	// A drained area must be able to cluster again.
	if pg := (&Page{SwapSlot: -1}); s.Alloc(pg) < 0 {
		t.Fatal("drained area rejects allocation")
	}
}

// TestSwapChurnThroughReclaim cycles pages through swap-out, swap-in and
// release under a tight cgroup, then tears everything down: the regression
// this locks in is that no owner-map entry survives the churn (a leak here
// silently grows swap occupancy until allocation fails).
func TestSwapChurnThroughReclaim(t *testing.T) {
	r := newRig(t, 1000, 8)
	pages := make([]*Page, 24)
	r.run(t, func(p *sim.Proc) {
		for i := range pages {
			pages[i] = r.mgr.NewPage(r.cg, i)
			r.mgr.FirstTouch(p, pages[i], GuestCtx)
		}
		for round := 0; round < 4; round++ {
			for _, pg := range pages {
				if pg.State == SwappedOut {
					r.mgr.SwapIn(p, pg, GuestCtx)
				}
				if pg.State.Resident() && !pg.EPT {
					// MinorMap re-dirties the page and frees its slot.
					r.mgr.MinorMap(p, pg, GuestCtx)
				}
			}
			checkOwnerInvariant(t, r.swap)
		}
	})
	if r.met.Get(metrics.HostSwapOuts) == 0 || r.met.Get(metrics.HostSwapIns) == 0 {
		t.Fatalf("churn did not exercise swap: outs=%d ins=%d",
			r.met.Get(metrics.HostSwapOuts), r.met.Get(metrics.HostSwapIns))
	}
	// Every slot still allocated is owned by a page that really references
	// it (no stale resurrection of released descriptors).
	r.swap.slots.Each(func(slot int64, e slotEntry) {
		if pg := e.owner; pg != nil && pg.SwapSlot != slot {
			t.Fatalf("slot %d owned by page gfn=%d whose SwapSlot=%d", slot, pg.ID, pg.SwapSlot)
		}
	})
	// Full teardown releases every remaining slot.
	for _, pg := range pages {
		r.mgr.Forget(pg)
	}
	if r.swap.InUse() != 0 || r.swap.ownedSlots() != 0 {
		t.Fatalf("teardown leaked swap slots: inUse=%d owner=%d", r.swap.InUse(), r.swap.ownedSlots())
	}
}
