package hostmm

import (
	"fmt"

	"vswapsim/internal/disk"
	"vswapsim/internal/mem"
)

// SwapArea is the host swap partition: a slot allocator over a disk region
// plus the swap cache. Slots are handed out lowest-free-first (as Linux
// does), which is what makes swap placement decay: the free set fragments
// as pages cycle in and out, so consecutive guest pages stop landing in
// consecutive slots.
type SwapArea struct {
	region disk.Region
	inUse  int
	hint   int64 // lowest slot that might be free

	// Cluster allocation (Linux SWAPFILE_CLUSTER): consecutive
	// allocations draw from a run of free slots so swap writeback stays
	// sequential while free runs last; once the area fragments,
	// allocation degrades to lowest-free and placement decays.
	next        int64 // next slot inside the current cluster (-1 = none)
	clusterEnd  int64
	clusterHint int64 // where the next cluster search resumes
	scanFailed  bool  // no free cluster exists until enough slots free up
	freesSince  int   // slots freed since the last failed cluster scan

	// slots records, per slot, whether it is allocated and the page whose
	// content it holds. The fault path reads ownership for every slot of a
	// readahead cluster, so this must be an indexed load, not a hashed map
	// probe. The table allocates per chunk on first use: a run touches a
	// few thousand slots of an area sized in millions. One table rather
	// than separate free and owner tables halves the lookups of every
	// allocation and free.
	slots mem.Table[slotEntry]

	// onFree, when non-nil, observes every slot release (the swap backend
	// hooks it to drop fast-tier copies when their slot dies).
	onFree func(slot int64)
}

// slotEntry is one swap slot. The zero value, which never-written chunks
// read as, is a free slot with no owner.
type slotEntry struct {
	owner *Page // nil when free
	used  bool
}

// SlotsPerCluster mirrors Linux's SWAPFILE_CLUSTER.
const SlotsPerCluster = 256

// NewSwapArea returns a swap area over the given region.
func NewSwapArea(region disk.Region) *SwapArea {
	return &SwapArea{
		region: region,
		slots:  mem.NewTable(region.Blocks, slotEntry{}),
		next:   -1,
	}
}

// Slots reports the total slot count.
func (s *SwapArea) Slots() int64 { return s.region.Blocks }

// InUse reports the number of allocated slots.
func (s *SwapArea) InUse() int { return s.inUse }

// Alloc assigns a slot to page pg and returns it, preferring to continue
// the current free cluster. It returns -1 if the area is full.
func (s *SwapArea) Alloc(pg *Page) int64 {
	// Continue the current cluster while it has free slots.
	if s.next >= 0 {
		for s.next < s.clusterEnd {
			i := s.next
			s.next++
			if !s.slots.Get(i).used {
				return s.take(i, pg)
			}
		}
		s.next = -1
	}
	// Find a fresh run of SlotsPerCluster free slots, resuming the search
	// where it last left off; when the area is known fragmented, skip the
	// scan until enough slots were freed to possibly form a cluster.
	if !s.scanFailed {
		if start := s.findCluster(); start >= 0 {
			s.next = start + 1
			s.clusterEnd = start + SlotsPerCluster
			return s.take(start, pg)
		}
		s.scanFailed = true
		s.freesSince = 0
	}
	// Fragmented: degrade to lowest-free (placement decay).
	if i := s.slots.Index(s.hint, s.region.Blocks, slotEntry{}); i >= 0 {
		return s.take(i, pg)
	}
	return -1
}

// findCluster locates a run of SlotsPerCluster free slots, scanning from
// clusterHint with wrap-around; -1 if none exists.
func (s *SwapArea) findCluster() int64 {
	end := s.freeRun(s.clusterHint, s.region.Blocks)
	if end < 0 {
		end = s.freeRun(0, min(s.clusterHint+SlotsPerCluster, s.region.Blocks))
	}
	if end < 0 {
		return -1
	}
	s.clusterHint = end
	return end - SlotsPerCluster
}

// freeRun returns the end (exclusive) of the first run of SlotsPerCluster
// free slots lying in [from, to), or -1 if there is none. Untouched chunks
// count as free in one step.
func (s *SwapArea) freeRun(from, to int64) int64 {
	run := int64(0)
	for i := from; i < to; {
		vals, n := s.slots.Span(i)
		n = min(n, to-i)
		if vals == nil {
			if run+n >= SlotsPerCluster {
				return i + SlotsPerCluster - run
			}
			run += n
			i += n
			continue
		}
		for _, e := range vals[:n] {
			i++
			if e.used {
				run = 0
			} else if run++; run == SlotsPerCluster {
				return i
			}
		}
	}
	return -1
}

func (s *SwapArea) take(i int64, pg *Page) int64 {
	s.slots.Set(i, slotEntry{owner: pg, used: true})
	if i == s.hint {
		s.hint = i + 1
	}
	s.inUse++
	return i
}

// Free releases a slot.
func (s *SwapArea) Free(slot int64) {
	if slot < 0 || slot >= s.region.Blocks || !s.slots.Get(slot).used {
		panic(fmt.Sprintf("hostmm: freeing bad swap slot %d", slot))
	}
	s.slots.Set(slot, slotEntry{})
	if slot < s.hint {
		s.hint = slot
	}
	s.inUse--
	if s.scanFailed {
		s.freesSince++
		if s.freesSince >= SlotsPerCluster {
			s.scanFailed = false // a cluster may exist again; rescan
		}
	}
	if s.onFree != nil {
		s.onFree(slot)
	}
}

// ownedSlots counts the slots with a recorded owner (used by tests and the
// audit to cross-check the allocator's in-use count).
func (s *SwapArea) ownedSlots() int {
	n := 0
	s.slots.Each(func(_ int64, e slotEntry) {
		if e.owner != nil {
			n++
		}
	})
	return n
}

// fragmented reports whether no whole free cluster remains (used by tests
// asserting placement decay).
func (s *SwapArea) fragmented() bool { return s.freeRun(0, s.region.Blocks) < 0 }

// Owner returns the page stored at slot, or nil if the slot is free or out
// of range.
func (s *SwapArea) Owner(slot int64) *Page {
	if slot < 0 || slot >= s.region.Blocks {
		return nil
	}
	return s.slots.Get(slot).owner
}

// Phys translates a slot to a physical disk block.
func (s *SwapArea) Phys(slot int64) int64 { return s.region.Phys(slot) }

// ClusterRun returns the window of allocated slots that a swap-in at slot
// would read in one go: Linux reads an aligned cluster of `cluster` slots
// around the fault and skips holes. The returned slice lists the slots (in
// ascending order, always including `slot`) grouped into maximal
// disk-contiguous runs by the caller.
func (s *SwapArea) ClusterRun(slot int64, cluster int) []int64 {
	return s.AppendClusterRun(nil, slot, cluster)
}

// AppendClusterRun is ClusterRun appending into dst (reusing its capacity),
// for callers that recycle the slot buffer across faults.
func (s *SwapArea) AppendClusterRun(dst []int64, slot int64, cluster int) []int64 {
	if cluster <= 1 {
		return append(dst, slot)
	}
	base := slot - slot%int64(cluster)
	end := base + int64(cluster)
	if end > s.region.Blocks {
		end = s.region.Blocks
	}
	for i := base; i < end; i++ {
		if s.slots.Get(i).used {
			dst = append(dst, i)
		}
	}
	return dst
}
