package hostmm

import (
	"testing"

	"vswapsim/internal/disk"
	"vswapsim/internal/mem"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// rig bundles a small host for white-box tests.
type rig struct {
	env  *sim.Env
	met  *metrics.Set
	dev  *disk.Device
	pool *mem.FramePool
	swap *SwapArea
	mgr  *Manager
	cg   *Cgroup
	img  *File
}

func newRig(t testing.TB, poolFrames, cgLimit int) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	met := metrics.NewSet()
	model := Constellation()
	dev := disk.NewDevice(env, model, met)
	layout := disk.NewLayout(model.TotalBlocks)
	imgRegion := layout.Reserve("img", 1<<16)
	swapRegion := layout.Reserve("swap", 1<<14)
	pool := mem.NewFramePool(poolFrames)
	swap := NewSwapArea(swapRegion)
	mgr := NewManager(env, met, dev, pool, swap, Config{})
	cg := mgr.NewCgroup("vm0", cgLimit)
	img := NewFile("img", imgRegion)
	return &rig{env: env, met: met, dev: dev, pool: pool, swap: swap, mgr: mgr, cg: cg, img: img}
}

// Constellation re-exports the disk model for tests in this package.
func Constellation() disk.LatencyModel { return disk.Constellation7200() }

// run executes fn as a process and drives the sim to completion.
func (r *rig) run(t testing.TB, fn func(p *sim.Proc)) {
	t.Helper()
	r.env.Go("test", fn)
	r.env.Run()
}

func TestFirstTouchAllocatesAndMaps(t *testing.T) {
	r := newRig(t, 100, 0)
	pg := r.mgr.NewPage(r.cg, 0)
	r.run(t, func(p *sim.Proc) {
		r.mgr.FirstTouch(p, pg, GuestCtx)
	})
	if pg.State != ResidentAnon || !pg.EPT || !pg.Dirty {
		t.Fatalf("state=%v ept=%v dirty=%v", pg.State, pg.EPT, pg.Dirty)
	}
	if r.cg.Resident() != 1 || r.pool.Used() != 1 {
		t.Fatalf("resident=%d used=%d", r.cg.Resident(), r.pool.Used())
	}
	if r.met.Get(metrics.HostFaultsInGuest) != 1 {
		t.Fatal("guest-context fault not counted")
	}
}

func TestReclaimSwapsOutAnon(t *testing.T) {
	r := newRig(t, 1000, 10)
	pages := make([]*Page, 20)
	r.run(t, func(p *sim.Proc) {
		for i := range pages {
			pages[i] = r.mgr.NewPage(r.cg, i)
			r.mgr.FirstTouch(p, pages[i], GuestCtx)
		}
	})
	if r.cg.Resident() > 10 {
		t.Fatalf("resident %d exceeds limit 10", r.cg.Resident())
	}
	swapped := 0
	for _, pg := range pages {
		if pg.State == SwappedOut {
			if pg.SwapSlot < 0 {
				t.Fatal("swapped page without slot")
			}
			swapped++
		}
	}
	if swapped != 10 {
		t.Fatalf("swapped = %d, want 10", swapped)
	}
	if r.met.Get(metrics.SwapWriteSectors) != int64(swapped)*disk.SectorsPerBlock {
		t.Fatalf("swap write sectors = %d", r.met.Get(metrics.SwapWriteSectors))
	}
}

func TestLRUEvictsOldestFirst(t *testing.T) {
	r := newRig(t, 1000, 0)
	var pages []*Page
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			pg := r.mgr.NewPage(r.cg, i)
			r.mgr.FirstTouch(p, pg, GuestCtx)
			pages = append(pages, pg)
		}
		// Pages all start referenced on the active list. One reclaim pass
		// deactivates and clears reference bits; a second evicts oldest.
		r.mgr.ReclaimForTest(p, r.cg, 2)
	})
	if pages[0].State != SwappedOut || pages[1].State != SwappedOut {
		t.Fatalf("oldest pages not evicted: %v %v", pages[0].State, pages[1].State)
	}
	if pages[7].State != ResidentAnon {
		t.Fatal("newest page evicted")
	}
}

func TestTouchProtectsFromEviction(t *testing.T) {
	r := newRig(t, 1000, 0)
	var pages []*Page
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			pg := r.mgr.NewPage(r.cg, i)
			r.mgr.FirstTouch(p, pg, GuestCtx)
			pages = append(pages, pg)
		}
		// The first reclaim deactivates (clearing reference bits) and
		// evicts the oldest page. Then promote page 1 with two touches and
		// reclaim more: page 1 must survive while younger pages go.
		r.mgr.ReclaimForTest(p, r.cg, 1)
		r.mgr.Touch(pages[1])
		r.mgr.Touch(pages[1])
		r.mgr.ReclaimForTest(p, r.cg, 4)
	})
	if pages[1].State != ResidentAnon {
		t.Fatal("recently-touched page was evicted")
	}
	if pages[2].State != SwappedOut {
		t.Fatal("older untouched page not evicted")
	}
}

func TestSwapInWithReadahead(t *testing.T) {
	r := newRig(t, 1000, 4)
	pages := make([]*Page, 16)
	r.run(t, func(p *sim.Proc) {
		for i := range pages {
			pages[i] = r.mgr.NewPage(r.cg, i)
			r.mgr.FirstTouch(p, pages[i], GuestCtx)
		}
		// Find a swapped page and fault it back.
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
		before := r.met.Get(metrics.HostSwapPrefetched)
		r.mgr.SwapIn(p, victim, GuestCtx)
		if victim.State != ResidentAnon {
			t.Fatalf("victim state = %v", victim.State)
		}
		if victim.EPT {
			t.Fatal("SwapIn must not map; MinorMap does")
		}
		if r.met.Get(metrics.HostSwapPrefetched) == before {
			t.Fatal("cluster readahead brought no neighbours")
		}
		r.mgr.MinorMap(p, victim, GuestCtx)
		if !victim.EPT || victim.SwapSlot != -1 {
			t.Fatal("MinorMap must map and release the slot (no dirty bits)")
		}
	})
}

func TestSwapSlotRetainedWithEPTDirtyBits(t *testing.T) {
	env := sim.NewEnv(1)
	met := metrics.NewSet()
	model := Constellation()
	dev := disk.NewDevice(env, model, met)
	layout := disk.NewLayout(model.TotalBlocks)
	swapRegion := layout.Reserve("swap", 1<<14)
	pool := mem.NewFramePool(1000)
	swap := NewSwapArea(swapRegion)
	mgr := NewManager(env, met, dev, pool, swap, Config{EPTDirtyBits: true})
	cg := mgr.NewCgroup("vm0", 4)
	pages := make([]*Page, 12)
	env.Go("t", func(p *sim.Proc) {
		for i := range pages {
			pages[i] = mgr.NewPage(cg, i)
			mgr.FirstTouch(p, pages[i], GuestCtx)
		}
		var victim *Page
		for _, pg := range pages {
			if pg.State == SwappedOut {
				victim = pg
				break
			}
		}
		mgr.SwapIn(p, victim, GuestCtx)
		mgr.MinorMap(p, victim, GuestCtx)
		if victim.SwapSlot < 0 {
			t.Error("with dirty bits a clean mapped page keeps its slot")
		}
		if victim.Dirty {
			t.Error("read-faulted page should stay clean with dirty bits")
		}
	})
	env.Run()
}

func TestFileFaultInAndDiscard(t *testing.T) {
	r := newRig(t, 1000, 6)
	// Create 8 named pages backed by consecutive image blocks.
	pages := make([]*Page, 8)
	for i := range pages {
		pages[i] = r.mgr.NewFilePage(r.cg, i, BlockRef{File: r.img, Block: int64(i)})
	}
	r.run(t, func(p *sim.Proc) {
		r.mgr.FileFaultIn(p, pages[0], GuestCtx)
		if pages[0].State != ResidentFile {
			t.Fatalf("state = %v", pages[0].State)
		}
		r.mgr.MinorMap(p, pages[0], GuestCtx)
		// Sequential faults should grow readahead and prefetch neighbours.
		if pages[1].State == FileNonResident {
			// minimum window is 4, so block 1 must have been prefetched
			t.Fatal("no file readahead happened")
		}
	})
	if r.met.Get(metrics.HostFilePrefetched) == 0 {
		t.Fatal("prefetch counter not incremented")
	}
}

func TestFileReclaimDiscardsWithoutWrite(t *testing.T) {
	r := newRig(t, 1000, 4)
	pages := make([]*Page, 12)
	for i := range pages {
		pages[i] = r.mgr.NewFilePage(r.cg, i, BlockRef{File: r.img, Block: int64(i * 2)}) // non-contiguous: no RA
	}
	r.run(t, func(p *sim.Proc) {
		for _, pg := range pages {
			if pg.State == FileNonResident {
				r.mgr.FileFaultIn(p, pg, GuestCtx)
				r.mgr.MinorMap(p, pg, GuestCtx)
			}
		}
	})
	if r.met.Get(metrics.SwapWriteSectors) != 0 {
		t.Fatal("clean file pages must not be written to swap")
	}
	if r.met.Get(metrics.HostFileDiscards) == 0 {
		t.Fatal("no discards counted")
	}
	if r.cg.Resident() > 4 {
		t.Fatalf("resident %d over limit", r.cg.Resident())
	}
}

func TestSilentWriteDetection(t *testing.T) {
	r := newRig(t, 1000, 4)
	pages := make([]*Page, 12)
	r.run(t, func(p *sim.Proc) {
		for i := range pages {
			pg := r.mgr.NewPage(r.cg, i)
			pages[i] = pg
			r.mgr.FirstTouch(p, pg, GuestCtx)
			// Simulate virtio DMA having filled the page from the image:
			// ground truth says content equals a block.
			pg.TruthBlock = BlockRef{File: r.img, Block: int64(i)}
			pg.TruthClean = true
		}
	})
	if r.met.Get(metrics.SilentSwapWrites) == 0 {
		t.Fatal("silent swap writes not detected")
	}
	if r.met.Get(metrics.SilentSwapWrites) != r.met.Get(metrics.HostSwapOuts) {
		t.Fatal("all these swap writes are silent")
	}
}

func TestCOWBreak(t *testing.T) {
	r := newRig(t, 1000, 0)
	pg := r.mgr.NewFilePage(r.cg, 0, BlockRef{File: r.img, Block: 7})
	r.run(t, func(p *sim.Proc) {
		r.mgr.FileFaultIn(p, pg, GuestCtx)
		r.mgr.MinorMap(p, pg, GuestCtx)
		r.mgr.COWBreak(p, pg, GuestCtx)
	})
	if pg.State != ResidentAnon || !pg.Dirty {
		t.Fatalf("state=%v dirty=%v", pg.State, pg.Dirty)
	}
	if r.img.MappingAt(7) != nil {
		t.Fatal("mapping not removed")
	}
	if r.cg.lists[listLazy].size != 1 {
		t.Fatal("lazy source entry missing")
	}
	if r.met.Get(metrics.HostCOWBreaks) != 1 {
		t.Fatal("COW not counted")
	}
}

func TestMapOverDropsOldSwapState(t *testing.T) {
	r := newRig(t, 1000, 4)
	pages := make([]*Page, 12)
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
		oldSlot := victim.SwapSlot
		r.mgr.MapOver(p, victim, BlockRef{File: r.img, Block: 3})
		if victim.SwapSlot != -1 {
			t.Error("old swap slot not detached")
		}
		if r.swap.Owner(oldSlot) == victim {
			t.Error("old swap slot still owned by victim")
		}
		if victim.State != ResidentFile || !victim.EPT || victim.Dirty {
			t.Errorf("state=%v ept=%v dirty=%v", victim.State, victim.EPT, victim.Dirty)
		}
		if r.met.Get(metrics.StaleSwapReads) != 0 {
			t.Error("MapOver must not fault old content in")
		}
	})
}

func TestAdoptAsNamed(t *testing.T) {
	r := newRig(t, 1000, 0)
	pg := r.mgr.NewPage(r.cg, 0)
	r.run(t, func(p *sim.Proc) {
		r.mgr.FirstTouch(p, pg, GuestCtx)
		r.mgr.AdoptAsNamed(pg, BlockRef{File: r.img, Block: 9})
	})
	if pg.State != ResidentFile || pg.Dirty {
		t.Fatalf("state=%v dirty=%v", pg.State, pg.Dirty)
	}
	if r.img.MappingAt(9) != pg {
		t.Fatal("mapping not registered")
	}
	if r.cg.FilePages() != 1 || r.cg.AnonPages() != 0 {
		t.Fatal("page not moved to file LRU")
	}
}

func TestInvalidateBlockResident(t *testing.T) {
	r := newRig(t, 1000, 0)
	pg := r.mgr.NewFilePage(r.cg, 0, BlockRef{File: r.img, Block: 5})
	r.run(t, func(p *sim.Proc) {
		r.mgr.FileFaultIn(p, pg, GuestCtx)
		r.mgr.InvalidateBlock(p, r.img, 5)
	})
	if pg.State != ResidentAnon || !pg.Dirty {
		t.Fatalf("state=%v", pg.State)
	}
	if r.img.MappingAt(5) != nil {
		t.Fatal("mapping survives invalidation")
	}
}

func TestInvalidateBlockNonResidentRescuesContent(t *testing.T) {
	r := newRig(t, 1000, 0)
	pg := r.mgr.NewFilePage(r.cg, 0, BlockRef{File: r.img, Block: 5})
	sectorsBefore := r.met.Get(metrics.ImageReadSectors)
	r.run(t, func(p *sim.Proc) {
		r.mgr.InvalidateBlock(p, r.img, 5)
	})
	if pg.State != ResidentAnon {
		t.Fatalf("state=%v, want resident-anon (C0 rescued)", pg.State)
	}
	if r.met.Get(metrics.ImageReadSectors) == sectorsBefore {
		t.Fatal("old content must be read before invalidation")
	}
}

func TestEmulationRemapSkipsRead(t *testing.T) {
	r := newRig(t, 1000, 4)
	pages := make([]*Page, 12)
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
		readsBefore := r.met.Get(metrics.SwapReadSectors)
		r.mgr.BeginEmulation(victim)
		if victim.State != Emulated {
			t.Fatalf("state=%v", victim.State)
		}
		r.mgr.EmulationRemap(p, victim)
		if victim.State != ResidentAnon || !victim.EPT || !victim.Dirty {
			t.Errorf("after remap: state=%v ept=%v", victim.State, victim.EPT)
		}
		if victim.SwapSlot != -1 {
			t.Error("slot not freed")
		}
		if r.met.Get(metrics.SwapReadSectors) != readsBefore {
			t.Error("remap must not read old content")
		}
	})
	if r.met.Get(metrics.PreventerRemaps) != 1 {
		t.Fatal("remap not counted")
	}
}

func TestEmulationMergeReadsOldContent(t *testing.T) {
	r := newRig(t, 1000, 4)
	pages := make([]*Page, 12)
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
		r.mgr.BeginEmulation(victim)
		readsBefore := r.met.Get(metrics.SwapReadSectors)
		done := r.mgr.SubmitOldContentRead(victim)
		if r.met.Get(metrics.SwapReadSectors) == readsBefore {
			t.Error("merge must read old content")
		}
		p.SleepUntil(done)
		r.mgr.EmulationMerge(p, victim)
		if victim.State != ResidentAnon || !victim.EPT {
			t.Errorf("after merge: state=%v", victim.State)
		}
	})
	if r.met.Get(metrics.PreventerMerges) != 1 {
		t.Fatal("merge not counted")
	}
}

func TestBalloonTakeAndReturn(t *testing.T) {
	r := newRig(t, 1000, 0)
	pg := r.mgr.NewPage(r.cg, 0)
	r.run(t, func(p *sim.Proc) {
		r.mgr.FirstTouch(p, pg, GuestCtx)
		if r.cg.Resident() != 1 {
			t.Fatal("setup")
		}
		r.mgr.BalloonTake(pg)
		if pg.State != Ballooned || r.cg.Resident() != 0 {
			t.Errorf("state=%v resident=%d", pg.State, r.cg.Resident())
		}
		r.mgr.BalloonReturn(pg)
		if pg.State != Untouched {
			t.Errorf("state=%v", pg.State)
		}
		r.mgr.FirstTouch(p, pg, GuestCtx)
		if pg.State != ResidentAnon {
			t.Errorf("reuse after deflate failed: %v", pg.State)
		}
	})
}

func TestBalloonTakeSwappedFreesSlot(t *testing.T) {
	r := newRig(t, 1000, 4)
	pages := make([]*Page, 12)
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
		before := r.swap.InUse()
		r.mgr.BalloonTake(victim)
		if r.swap.InUse() != before-1 {
			t.Error("slot not freed on balloon take")
		}
	})
}

func TestGlobalPressureReclaimsLargestCgroup(t *testing.T) {
	r := newRig(t, 20, 0) // tiny global pool, no per-cgroup limits
	cg2 := r.mgr.NewCgroup("vm1", 0)
	r.run(t, func(p *sim.Proc) {
		// vm0 fills most of the pool.
		for i := 0; i < 15; i++ {
			pg := r.mgr.NewPage(r.cg, i)
			r.mgr.FirstTouch(p, pg, GuestCtx)
		}
		// vm1 allocates; pressure must be relieved from vm0 (largest).
		for i := 0; i < 8; i++ {
			pg := r.mgr.NewPage(cg2, i)
			r.mgr.FirstTouch(p, pg, GuestCtx)
		}
	})
	if r.pool.Used() > 20 {
		t.Fatalf("pool overdrawn: %d", r.pool.Used())
	}
	if r.cg.Resident() >= 15 {
		t.Fatalf("vm0 not reclaimed: %d resident", r.cg.Resident())
	}
	if cg2.Resident() != 8 {
		t.Fatalf("vm1 resident = %d, want 8", cg2.Resident())
	}
}

func TestSwapAreaClusterSequentialAllocation(t *testing.T) {
	r := newRig(t, 100, 0)
	s := r.swap
	pg := r.mgr.NewPage(r.cg, 0)
	// Fresh area: allocations must be strictly sequential (cluster fill),
	// and continue past freed holes so writeback stays sequential.
	for i := 0; i < 6; i++ {
		if got := s.Alloc(pg); got != int64(i) {
			t.Fatalf("alloc #%d = %d", i, got)
		}
	}
	s.Free(2)
	s.Free(4)
	if got := s.Alloc(pg); got != 6 {
		t.Fatalf("cluster alloc = %d, want to continue at 6", got)
	}
}

func TestSwapAreaDegradesToLowestFreeWhenFragmented(t *testing.T) {
	// Build a tiny fully-fragmented area: every other slot taken, so no
	// run of SlotsPerCluster free slots exists.
	env := sim.NewEnv(1)
	met := metrics.NewSet()
	model := Constellation()
	dev := disk.NewDevice(env, model, met)
	layout := disk.NewLayout(model.TotalBlocks)
	region := layout.Reserve("swap", 2*SlotsPerCluster)
	pool := mem.NewFramePool(10)
	s := NewSwapArea(region)
	mgr := NewManager(env, met, dev, pool, s, Config{})
	cg := mgr.NewCgroup("vm", 0)
	pg := mgr.NewPage(cg, 0)
	for i := int64(0); i < region.Blocks; i++ {
		s.Alloc(pg)
	}
	// Free every other slot: fragmented, no whole cluster.
	for i := int64(0); i < region.Blocks; i += 2 {
		s.Free(i)
	}
	if !s.fragmented() {
		t.Fatal("setup: expected fragmentation")
	}
	if got := s.Alloc(pg); got != 0 {
		t.Fatalf("fragmented alloc = %d, want lowest free 0", got)
	}
	if got := s.Alloc(pg); got != 2 {
		t.Fatalf("fragmented alloc = %d, want 2", got)
	}
}

func TestClusterRunSkipsHoles(t *testing.T) {
	r := newRig(t, 100, 0)
	s := r.swap
	pgs := make([]*Page, 8)
	for i := range pgs {
		pgs[i] = r.mgr.NewPage(r.cg, i)
		s.Alloc(pgs[i]) // slots 0..7
	}
	s.Free(3)
	run := s.ClusterRun(1, 8)
	want := []int64{0, 1, 2, 4, 5, 6, 7}
	if len(run) != len(want) {
		t.Fatalf("run = %v", run)
	}
	for i := range want {
		if run[i] != want[i] {
			t.Fatalf("run = %v, want %v", run, want)
		}
	}
}

func TestReclaimPrefersFilePages(t *testing.T) {
	env := sim.NewEnv(1)
	met := metrics.NewSet()
	model := Constellation()
	dev := disk.NewDevice(env, model, met)
	layout := disk.NewLayout(model.TotalBlocks)
	imgRegion := layout.Reserve("img", 1<<16)
	swapRegion := layout.Reserve("swap", 1<<14)
	pool := mem.NewFramePool(1000)
	swap := NewSwapArea(swapRegion)
	mgr := NewManager(env, met, dev, pool, swap, Config{MinFileFloor: 1})
	cg := mgr.NewCgroup("vm0", 0)
	img := NewFile("img", imgRegion)

	var anon, file []*Page
	env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			pg := mgr.NewPage(cg, i)
			mgr.FirstTouch(p, pg, GuestCtx)
			anon = append(anon, pg)
		}
		for i := 0; i < 200; i++ {
			pg := mgr.NewFilePage(cg, 1000+i, BlockRef{File: img, Block: int64(i)})
			mgr.FileFaultIn(p, pg, GuestCtx)
			mgr.MinorMap(p, pg, GuestCtx)
			file = append(file, pg)
		}
		mgr.ReclaimForTest(p, cg, 32)
		mgr.ReclaimForTest(p, cg, 32)
	})
	env.Run()
	anonEvicted, fileEvicted := 0, 0
	for _, pg := range anon {
		if pg.State == SwappedOut {
			anonEvicted++
		}
	}
	for _, pg := range file {
		if pg.State == FileNonResident {
			fileEvicted++
		}
	}
	if fileEvicted == 0 {
		t.Fatal("no file pages evicted")
	}
	if anonEvicted > 0 {
		t.Fatalf("anon pages evicted (%d) while plenty of file pages remain", anonEvicted)
	}
}
