package hostmm

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"vswapsim/internal/disk"
	"vswapsim/internal/mem"
	"vswapsim/internal/sim"
)

// denseSwap is a flat reference model of SwapArea's allocator: the same
// policy over eagerly allocated []bool/[]*Page tables.
type denseSwap struct {
	n                      int64
	free                   []bool
	owner                  []*Page
	inUse                  int
	hint, next, clusterEnd int64
	clusterHint            int64
	scanFailed             bool
	freesSince             int
}

func newDenseSwap(n int64) *denseSwap {
	d := &denseSwap{n: n, free: make([]bool, n), owner: make([]*Page, n), next: -1}
	for i := range d.free {
		d.free[i] = true
	}
	return d
}

func (d *denseSwap) alloc(pg *Page) int64 {
	if d.next >= 0 {
		for d.next < d.clusterEnd {
			i := d.next
			d.next++
			if d.free[i] {
				return d.take(i, pg)
			}
		}
		d.next = -1
	}
	if !d.scanFailed {
		if start := d.findCluster(); start >= 0 {
			d.next = start + 1
			d.clusterEnd = start + SlotsPerCluster
			return d.take(start, pg)
		}
		d.scanFailed = true
		d.freesSince = 0
	}
	for i := d.hint; i < d.n; i++ {
		if d.free[i] {
			return d.take(i, pg)
		}
	}
	return -1
}

func (d *denseSwap) findCluster() int64 {
	scan := func(from, to int64) int64 {
		run := int64(0)
		for i := from; i < to; i++ {
			if !d.free[i] {
				run = 0
				continue
			}
			if run++; run == SlotsPerCluster {
				d.clusterHint = i + 1
				return i - run + 1
			}
		}
		return -1
	}
	if start := scan(d.clusterHint, d.n); start >= 0 {
		return start
	}
	return scan(0, min(d.clusterHint+SlotsPerCluster, d.n))
}

func (d *denseSwap) take(i int64, pg *Page) int64 {
	d.free[i] = false
	if i == d.hint {
		d.hint = i + 1
	}
	d.inUse++
	d.owner[i] = pg
	return i
}

func (d *denseSwap) release(slot int64) {
	if slot < 0 || slot >= d.n || d.free[slot] {
		panic("dense: freeing bad swap slot")
	}
	d.free[slot] = true
	d.hint = min(d.hint, slot)
	d.inUse--
	d.owner[slot] = nil
	if d.scanFailed {
		if d.freesSince++; d.freesSince >= SlotsPerCluster {
			d.scanFailed = false
		}
	}
}

func (d *denseSwap) clusterRun(slot int64, cluster int) []int64 {
	if cluster <= 1 {
		return []int64{slot}
	}
	var out []int64
	base := slot - slot%int64(cluster)
	for i := base; i < min(base+int64(cluster), d.n); i++ {
		if !d.free[i] {
			out = append(out, i)
		}
	}
	return out
}

// swapPair drives a SwapArea and its dense model in lockstep.
type swapPair struct {
	t     *testing.T
	s     *SwapArea
	d     *denseSwap
	pages []*Page // page allocated by the i-th alloc
}

func newSwapPair(t *testing.T, slots int64) *swapPair {
	layout := disk.NewLayout(slots + 64)
	return &swapPair{t: t, s: NewSwapArea(layout.Reserve("swap", slots)), d: newDenseSwap(slots)}
}

func (p *swapPair) alloc() int64 {
	p.t.Helper()
	pg := &Page{ID: len(p.pages), SwapSlot: -1}
	p.pages = append(p.pages, pg)
	got, want := p.s.Alloc(pg), p.d.alloc(pg)
	if got != want {
		p.t.Fatalf("alloc #%d = %d, dense model %d", len(p.pages), got, want)
	}
	return got
}

func (p *swapPair) free(slot int64) {
	p.t.Helper()
	p.s.Free(slot)
	p.d.release(slot)
}

// check compares the full allocator state with the model.
func (p *swapPair) check() {
	p.t.Helper()
	s, d := p.s, p.d
	if s.inUse != d.inUse || s.hint != d.hint || s.next != d.next || s.clusterHint != d.clusterHint ||
		s.scanFailed != d.scanFailed || s.freesSince != d.freesSince {
		p.t.Fatalf("state diverged: inUse %d/%d hint %d/%d next %d/%d clusterHint %d/%d scanFailed %v/%v",
			s.inUse, d.inUse, s.hint, d.hint, s.next, d.next, s.clusterHint, d.clusterHint, s.scanFailed, d.scanFailed)
	}
	for i := int64(0); i < d.n; i++ {
		if e := s.slots.Get(i); e.used == d.free[i] || e.owner != d.owner[i] {
			p.t.Fatalf("slot %d: used %v, dense free %v; owner %p/%p", i, e.used, d.free[i], e.owner, d.owner[i])
		}
	}
	for _, slot := range []int64{0, d.n / 2, d.n - 1} {
		for _, cl := range []int{1, 8, 32} {
			if got, want := s.AppendClusterRun(nil, slot, cl), d.clusterRun(slot, cl); !slices.Equal(got, want) {
				p.t.Fatalf("AppendClusterRun(%d, %d) = %v, want %v", slot, cl, got, want)
			}
		}
	}
	if s.ownedSlots() != d.inUse {
		p.t.Fatalf("ownedSlots %d, want %d", s.ownedSlots(), d.inUse)
	}
	wantFrag := d.findClusterPure() < 0
	if s.fragmented() != wantFrag {
		p.t.Fatalf("fragmented = %v, want %v", s.fragmented(), wantFrag)
	}
}

// findClusterPure reports the first free cluster start without moving any
// hint (used for the fragmented check).
func (d *denseSwap) findClusterPure() int64 {
	run := int64(0)
	for i := int64(0); i < d.n; i++ {
		if !d.free[i] {
			run = 0
		} else if run++; run == SlotsPerCluster {
			return i - run + 1
		}
	}
	return -1
}

func (p *swapPair) teardown() {
	p.t.Helper()
	for i := int64(0); i < p.d.n; i++ {
		if !p.d.free[i] {
			p.free(i)
		}
	}
	p.check()
	if p.s.InUse() != 0 || p.s.ownedSlots() != 0 {
		p.t.Fatalf("teardown left inUse=%d owned=%d", p.s.InUse(), p.s.ownedSlots())
	}
}

// TestSwapAreaMatchesDenseModel drives the lazily allocated swap area and
// a flat model of the same policy through chunk-boundary, wrap-around and
// random scenarios, comparing every allocation and the full table state.
func TestSwapAreaMatchesDenseModel(t *testing.T) {
	const C = mem.TableChunk
	cases := []struct {
		name  string
		slots int64
		run   func(p *swapPair)
	}{
		{"slots 4095/4096", 2*C + 77, func(p *swapPair) {
			for p.d.hint <= C {
				p.alloc()
			}
			p.free(C - 1)
			p.free(C)
			p.check()
			p.alloc()
			p.alloc()
			p.check()
		}},
		{"fill through last partial chunk", 2*C + 77, func(p *swapPair) {
			for p.alloc() >= 0 {
			}
			p.check()
			p.free(2*C + 76)
			p.free(2*C + 70)
			if got := p.alloc(); got != 2*C+70 {
				t.Fatalf("refill = %d, want lowest free %d", got, 2*C+70)
			}
			p.check()
		}},
		{"findCluster wraps across absent chunks", 4*C + 100, func(p *swapPair) {
			// Fill chunk 0, then fragment it except for its last 100 slots.
			for i := 0; i < C; i++ {
				p.alloc()
			}
			for slot := int64(0); slot < C-100; slot += 2 {
				p.free(slot)
			}
			for slot := int64(C - 100); slot < C; slot++ {
				p.free(slot)
			}
			// Resume the cluster search at chunk 2: it fills chunks 2-4
			// (never touched before), then wraps to slot 0, where the only
			// run starts in chunk 0's tail and ends in untouched chunk 1.
			p.s.clusterHint, p.d.clusterHint = 2*C, 2*C
			for p.d.clusterHint >= 2*C {
				p.alloc()
			}
			if p.s.chunkAllocated(C) {
				t.Fatal("setup: chunk 1 already allocated")
			}
			p.check()
			if p.d.next-1 != C-100 {
				t.Fatalf("wrapped cluster starts at %d, want %d", p.d.next-1, C-100)
			}
		}},
		{"AppendClusterRun over absent chunk", 3 * C, func(p *swapPair) {
			p.alloc()
			if run := p.s.AppendClusterRun(nil, 2*C+5, 8); len(run) != 0 {
				t.Fatalf("run over an untouched chunk = %v, want empty", run)
			}
			p.check()
		}},
		{"random churn", 3*C + 333, func(p *swapPair) {
			rng := rand.New(rand.NewSource(42))
			var live []int64
			for step := 0; step < 20000; step++ {
				if len(live) == 0 || rng.Intn(3) > 0 {
					if slot := p.alloc(); slot >= 0 {
						live = append(live, slot)
					}
					continue
				}
				k := rng.Intn(len(live))
				p.free(live[k])
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				if step%2000 == 0 {
					p.check()
				}
			}
			p.check()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newSwapPair(t, c.slots)
			c.run(p)
			p.teardown()
		})
	}
}

// chunkAllocated reports whether the slot table holds storage for slot.
func (s *SwapArea) chunkAllocated(slot int64) bool {
	vals, _ := s.slots.Span(slot)
	return vals != nil
}

// TestSwapAreaFreeInAbsentChunkPanics: freeing a slot that was never
// allocated panics, also when its chunk has no storage, and leaves the
// chunk unallocated.
func TestSwapAreaFreeInAbsentChunkPanics(t *testing.T) {
	p := newSwapPair(t, 3*mem.TableChunk)
	p.alloc()
	slot := int64(2*mem.TableChunk + 9)
	defer func() {
		if recover() == nil {
			t.Fatal("Free of a never-allocated slot did not panic")
		}
		if p.s.chunkAllocated(slot) {
			t.Fatal("failed Free allocated the chunk")
		}
		p.check()
	}()
	p.s.Free(slot)
}

// TestMemoryRecordSizes pins the host page record at 96 bytes: slab
// memory scales with it, and guests have hundreds of thousands of pages.
func TestMemoryRecordSizes(t *testing.T) {
	if sz := unsafe.Sizeof(Page{}); sz > 96 {
		t.Fatalf("sizeof(Page) = %d, want <= 96", sz)
	}
}

// TestListRemoveRejectsForeignList: a page names its list by a one-byte
// id, so removal must also check that the id resolves to this list through
// the page's own cgroup; the same list of another cgroup is rejected.
func TestListRemoveRejectsForeignList(t *testing.T) {
	r := newRig(t, 100, 0)
	other := r.mgr.NewCgroup("vm1", 0)
	pg := r.mgr.NewPage(r.cg, 0)
	r.run(t, func(p *sim.Proc) { r.mgr.FirstTouch(p, pg, GuestCtx) })
	if !pg.InLRU() || !r.cg.lists[listActiveAnon].holds(pg) {
		t.Fatal("setup: page not on its cgroup's active anon list")
	}
	for _, l := range []*pageList{&other.lists[listActiveAnon], &r.cg.lists[listInactiveAnon]} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("removing from %s did not panic", l.name)
				}
			}()
			l.remove(pg)
		}()
	}
	r.cg.lists[listActiveAnon].remove(pg)
	if pg.InLRU() {
		t.Fatal("page still listed after removal")
	}
}

// TestListRotate: rotating moves the oldest page to the front and keeps
// every page on the list with intact links.
func TestListRotate(t *testing.T) {
	r := newRig(t, 100, 0)
	l := &r.cg.lists[listInactiveAnon]
	order := func() []int {
		var ids []int
		for pg := l.head; pg != nil; pg = pg.next {
			ids = append(ids, pg.ID)
			if (pg.prev == nil) != (pg == l.head) || (pg.next == nil) != (pg == l.tail) {
				t.Fatalf("page %d has broken links", pg.ID)
			}
		}
		return ids
	}
	l.rotate() // empty: no-op
	pg0 := r.mgr.NewPage(r.cg, 0)
	l.pushFront(pg0)
	l.rotate() // one page: no-op
	for id := 1; id < 3; id++ {
		l.pushFront(r.mgr.NewPage(r.cg, id))
	}
	if got := order(); !slices.Equal(got, []int{2, 1, 0}) {
		t.Fatalf("setup order %v", got)
	}
	l.rotate()
	if got := order(); !slices.Equal(got, []int{0, 2, 1}) || l.size != 3 || !l.holds(pg0) {
		t.Fatalf("after rotate: order %v size %d", got, l.size)
	}
}

// TestAuditCatchesSlotTableCorruption: the audit walks only allocated
// chunks of the slot table, so it must still flag an owner recorded in a
// slot marked free, and an in-use count with no owner behind it.
func TestAuditCatchesSlotTableCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(s *SwapArea, pg *Page)
		want    string
	}{
		{"owned but marked free", func(s *SwapArea, pg *Page) {
			slot := int64(3*mem.TableChunk + 1)
			pg.SwapSlot = slot
			s.slots.Set(slot, slotEntry{owner: pg})
		}, "marked free"},
		{"owner records another slot", func(s *SwapArea, pg *Page) {
			s.slots.Set(s.Alloc(nil), slotEntry{owner: pg, used: true})
		}, "records slot"},
		{"in use without owner", func(s *SwapArea, pg *Page) {
			s.inUse++
		}, "owner table has"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 100, 0)
			pg := r.mgr.NewPage(r.cg, 0)
			pg.State = SwappedOut
			if err := r.mgr.Audit(); err != nil {
				t.Fatalf("clean audit: %v", err)
			}
			c.corrupt(r.swap, pg)
			if err := r.mgr.Audit(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Audit() = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// TestNewSwapAreaAllocatesLazily: a 4 GiB swap area costs its chunk
// indexes, not per-slot tables.
func TestNewSwapAreaAllocatesLazily(t *testing.T) {
	layout := disk.NewLayout(1 << 21)
	region := layout.Reserve("swap", 1<<20) // 4 GiB of 4 KiB slots
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s := NewSwapArea(region)
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(s)
	if b := m1.TotalAlloc - m0.TotalAlloc; b >= 64<<10 {
		t.Fatalf("NewSwapArea(4 GiB) allocated %d bytes, want < 64 KiB", b)
	}
}
