package hostmm

import (
	"fmt"

	"vswapsim/internal/disk"
	"vswapsim/internal/sim"
	"vswapsim/internal/trace"
)

// Injected swap-in failure retry policy: bounded exponential backoff,
// re-reading the faulting slot each attempt; exhaustion poisons the slot
// (see SwapIn).
const (
	swapInMaxRetries   = 4
	swapInRetryBackoff = 250 * sim.Microsecond
)

// NewPage creates the host-side descriptor for one page of cg (lazily, on
// first reference). ID is the GFN for guest pages.
func (m *Manager) NewPage(cg *Cgroup, id int) *Page {
	if len(m.pageSlab) == 0 {
		m.pageSlab = make([]Page, 8192)
	}
	pg := &m.pageSlab[0]
	m.pageSlab = m.pageSlab[1:]
	pg.Owner = cg
	pg.ID = id
	pg.SwapSlot = -1
	return pg
}

// NewFilePage creates a named, non-resident page backed by ref, e.g. one
// page of the QEMU executable before it is first demand-loaded.
func (m *Manager) NewFilePage(cg *Cgroup, id int, ref BlockRef) *Page {
	pg := m.NewPage(cg, id)
	pg.State = FileNonResident
	pg.Backing = ref
	pg.TruthBlock = ref
	pg.TruthClean = true
	ref.File.AddMapping(pg)
	return pg
}

func (m *Manager) accountFault(ctx Ctx, major bool) {
	if ctx == GuestCtx {
		m.c.faultsInGuest.Inc()
		if major {
			m.c.majorInGuest.Inc()
		}
	} else {
		m.c.faultsInHost.Inc()
	}
	if major {
		m.c.majorFaults.Inc()
	} else {
		m.c.minorFaults.Inc()
	}
}

// accountFaultLatency records one serviced fault's end-to-end latency
// (including lock waits, reclaim and disk time) in the matching histogram,
// and charges the handler's CPU cost to the host-fault phase. Call it where
// accountFault is called, with the fault entry time.
func (m *Manager) accountFaultLatency(start sim.Time, major bool, cpu sim.Duration) {
	h := m.c.histFaultMinor
	if major {
		h = m.c.histFaultMajor
	}
	h.Observe(m.Env.Now().Sub(start))
	m.c.timeHostFault.Add(int64(cpu))
}

// lockFault serializes concurrent fault-ins: it returns false if another
// process completed the fault while we waited (the caller should simply
// return; the page is in a new state). On true, the caller owns the fault
// and must call unlockFault when done.
func (m *Manager) lockFault(p *sim.Proc, pg *Page, want PageState) bool {
	for pg.fault != nil {
		sig := pg.fault
		sig.Wait(p)
	}
	if pg.State != want {
		return false // resolved concurrently
	}
	if n := len(m.signalPool); n > 0 {
		pg.fault = m.signalPool[n-1]
		m.signalPool = m.signalPool[:n-1]
	} else {
		pg.fault = sim.NewSignal(m.Env)
	}
	return true
}

func (m *Manager) unlockFault(pg *Page) {
	sig := pg.fault
	pg.fault = nil
	sig.Broadcast()
	m.signalPool = append(m.signalPool, sig)
}

// FirstTouch handles the very first access to an untouched (or ballooned-
// then-returned) page: allocate a zeroed frame and map it.
func (m *Manager) FirstTouch(p *sim.Proc, pg *Page, ctx Ctx) {
	if pg.State != Untouched && pg.State != Ballooned {
		panic(fmt.Sprintf("hostmm: FirstTouch on %s page", pg.State))
	}
	start := m.Env.Now()
	if !m.lockFault(p, pg, pg.State) {
		return
	}
	defer m.unlockFault(pg)
	m.chargeFrames(p, pg.Owner, 1)
	pg.State = ResidentAnon
	pg.Dirty = true
	pg.Referenced = true
	pg.EPT = ctx == GuestCtx
	pg.TruthClean = false
	pg.TruthBlock = BlockRef{}
	pg.Owner.lists[listActiveAnon].pushFront(pg)
	m.accountFault(ctx, false)
	p.Sleep(m.Cfg.MinorFaultCost)
	m.accountFaultLatency(start, false, m.Cfg.MinorFaultCost)
}

// SwapIn services a major fault on a swapped-out page: it reads the
// cluster of allocated slots around the fault (swap readahead), placing
// the neighbours in the swap cache. The faulting page is left resident but
// unmapped; callers map it with MinorMap (guest) or use it directly
// (host/QEMU context).
func (m *Manager) SwapIn(p *sim.Proc, pg *Page, ctx Ctx) {
	if pg.State != SwappedOut {
		return // resolved while the caller was getting here
	}
	faultStart := m.Env.Now()
	if !m.lockFault(p, pg, SwappedOut) {
		return // a concurrent fault brought the page in
	}
	defer m.unlockFault(pg)
	bufs := m.getSwapInBufs()
	defer m.putSwapInBufs(bufs)
	slots := m.Swap.AppendClusterRun(bufs.ioSlots[:0], pg.SwapSlot, m.Cfg.SwapClusterPages)

	// Read maximal disk-contiguous runs; skip slots whose page is already
	// in the swap cache (resident). Filter in place: the run is scanned
	// front to back and the filtered prefix never outruns the read cursor.
	ioSlots := slots[:0]
	for _, s := range slots {
		q := m.Swap.Owner(s)
		if q != nil && q.State == SwappedOut && (q == pg || q.fault == nil) {
			ioSlots = append(ioSlots, s)
		}
	}
	bufs.ioSlots = ioSlots
	var last sim.Time
	start := 0
	for i := 1; i <= len(ioSlots); i++ {
		if i < len(ioSlots) && ioSlots[i] == ioSlots[i-1]+1 {
			continue
		}
		done := m.Back.SubmitRead(ioSlots[start:i])
		if done > last {
			last = done
		}
		start = i
	}
	m.Back.WaitFor(p, last)

	// Injected transient read failures: retry the faulting slot with
	// exponential backoff. If retries run out the slot's content is
	// suspect — the page is instantiated anyway but poisoned, degrading it
	// to plain dirty swap below (the slot is dropped, forcing a fresh
	// write on the next eviction).
	poisoned := false
	if m.Inj != nil {
		for attempt := 0; pg.State == SwappedOut && m.Inj.SwapInFailure(); attempt++ {
			if attempt == swapInMaxRetries {
				poisoned = true
				m.c.faultSwapInPoisoned.Inc()
				break
			}
			backoff := swapInRetryBackoff << attempt
			m.c.faultSwapInRetries.Inc()
			m.c.histBackoff.Observe(backoff)
			p.Sleep(backoff)
			m.Back.WaitFor(p, m.Back.SubmitRead1(pg.SwapSlot))
		}
	}

	// The guest may have superseded the page while the read was in flight
	// (balloon take after an OOM teardown, mmap-over): nothing to map.
	if pg.State != SwappedOut {
		return
	}

	// Instantiate the faulting page first and pin it so that charging
	// frames for the prefetched neighbours cannot reclaim it (Linux holds
	// the page lock across the fault).
	m.pin(pg)
	m.chargeFrames(p, pg.Owner, 1)
	if pg.State != SwappedOut {
		m.unchargeFrame(pg.Owner)
		m.unpin(pg)
		return
	}
	pg.State = ResidentAnon
	pg.Dirty = false
	pg.EPT = false
	pg.Referenced = false
	pg.Owner.lists[listInactiveAnon].pushFront(pg)
	m.c.hostSwapIns.Inc()
	m.Back.NoteRefault(pg.SwapSlot)
	if m.Trace.Recording(trace.Fault) {
		m.Trace.Add(m.Env.Now(), trace.Fault, "swap-in cg=%s gfn=%d slot=%d cluster=%d",
			pg.Owner.Name, pg.ID, pg.SwapSlot, len(ioSlots))
	}
	if poisoned {
		// Degrade to plain swap: drop the poisoned slot so nothing ever
		// trusts its content again; the page must be rewritten to evict.
		m.Swap.Free(pg.SwapSlot)
		pg.SwapSlot = -1
		pg.Dirty = true
	}

	pinned := bufs.pinned[:0]
	for _, s := range ioSlots {
		q := m.Swap.Owner(s)
		if q == nil || q.State != SwappedOut || q.fault != nil {
			continue
		}
		// Prefetch may itself reclaim (Linux allocates readahead pages
		// with reclaim allowed); pin the cluster so the fault cannot eat
		// its own pages, but never pin away the last evictable page.
		if !m.canPrefetchInto(q.Owner) {
			continue
		}
		m.pin(q)
		m.chargeFrames(p, q.Owner, 1)
		if q.State != SwappedOut {
			// A concurrent fault instantiated q while reclaim slept.
			m.unchargeFrame(q.Owner)
			m.unpin(q)
			continue
		}
		q.State = ResidentAnon
		q.Dirty = false // clean copy of the slot (swap cache)
		q.EPT = false
		q.Referenced = false
		q.Owner.lists[listInactiveAnon].pushFront(q)
		m.c.hostSwapPrefetched.Inc()
		pinned = append(pinned, q)
	}
	bufs.pinned = pinned
	for _, q := range pinned {
		m.unpin(q)
	}
	m.unpin(pg)
	m.accountFault(ctx, true)
	p.Sleep(m.Cfg.MajorFaultCost)
	m.accountFaultLatency(faultStart, true, m.Cfg.MajorFaultCost)
}

// FileFaultIn services a major fault on a named non-resident page by
// reading it (plus a sequential readahead window of other named,
// non-resident blocks) from its backing file.
func (m *Manager) FileFaultIn(p *sim.Proc, pg *Page, ctx Ctx) {
	if pg.State != FileNonResident {
		return // resolved while the caller was getting here
	}
	faultStart := m.Env.Now()
	if !m.lockFault(p, pg, FileNonResident) {
		return // a concurrent fault brought the page in
	}
	defer m.unlockFault(pg)
	f := pg.Backing.File
	b := pg.Backing.Block
	win := f.readaheadWindow(b, m.Cfg.FileRAMinPages, m.Cfg.FileRAMaxPages)

	// Extend from the demand block over contiguous blocks that have a
	// non-resident mapping (the paper: host prefetch is limited to content
	// the guest already cached and the host reclaimed).
	nblocks := 1
	for int64(nblocks) < int64(win) {
		nb := b + int64(nblocks)
		if nb >= f.Blocks() {
			break
		}
		hasNR := false
		for q := f.MappingAt(nb); q != nil; q = q.nextMapping {
			if q.State == FileNonResident {
				hasNR = true
				break
			}
		}
		if !hasNR || f.CachedResident(nb) {
			break
		}
		nblocks++
	}

	done := m.Dev.Submit(disk.Read, f.Phys(b), nblocks)
	m.c.imageReadSectors.Add(int64(nblocks) * disk.SectorsPerBlock)
	m.Dev.WaitFor(p, done)

	if pg.State != FileNonResident {
		return // superseded while the read was in flight
	}
	m.pin(pg)
	m.chargeFrames(p, pg.Owner, 1)
	if pg.State != FileNonResident {
		m.unchargeFrame(pg.Owner)
		m.unpin(pg)
		return
	}
	pg.State = ResidentFile
	pg.EPT = false
	pg.Referenced = false
	pg.Dirty = false
	pg.Owner.lists[listInactiveFile].pushFront(pg)
	if m.Trace.Recording(trace.Fault) {
		m.Trace.Add(m.Env.Now(), trace.Fault, "file-in cg=%s gfn=%d block=%d window=%d",
			pg.Owner.Name, pg.ID, b, nblocks)
	}

	bufs := m.getSwapInBufs()
	pinned := bufs.pinned[:0]
	prefetch := func(q *Page) {
		if q == pg || q.State != FileNonResident || q.fault != nil {
			return
		}
		if !m.canPrefetchInto(q.Owner) {
			return
		}
		m.pin(q)
		m.chargeFrames(p, q.Owner, 1)
		if q.State != FileNonResident {
			// A concurrent fault resolved q while reclaim slept.
			m.unchargeFrame(q.Owner)
			m.unpin(q)
			return
		}
		q.State = ResidentFile
		q.EPT = false
		q.Referenced = false
		q.Dirty = false
		q.Owner.lists[listInactiveFile].pushFront(q)
		m.c.hostFilePrefetched.Inc()
		pinned = append(pinned, q)
	}
	for i := 0; i < nblocks; i++ {
		f.EachMapping(b+int64(i), prefetch)
	}
	bufs.pinned = pinned
	for _, q := range pinned {
		m.unpin(q)
	}
	m.putSwapInBufs(bufs)
	m.unpin(pg)
	m.accountFault(ctx, true)
	p.Sleep(m.Cfg.MajorFaultCost)
	m.accountFaultLatency(faultStart, true, m.Cfg.MajorFaultCost)
}

// MinorMap installs the GPA⇒HPA mapping for a resident page (prefetched by
// swap or file readahead, or just brought in by a major fault). For
// anonymous pages on pre-Haswell hardware the host must then assume the
// page is dirty, so its swap slot is released.
func (m *Manager) MinorMap(p *sim.Proc, pg *Page, ctx Ctx) {
	if !pg.State.Resident() {
		panic(fmt.Sprintf("hostmm: MinorMap on %s page", pg.State))
	}
	start := m.Env.Now()
	wasHit := !pg.EPT && (pg.SwapSlot >= 0 || pg.State == ResidentFile)
	pg.EPT = true
	m.Touch(pg)
	if pg.State == ResidentAnon && !m.Cfg.EPTDirtyBits {
		pg.Dirty = true
		if pg.SwapSlot >= 0 {
			m.Swap.Free(pg.SwapSlot)
			pg.SwapSlot = -1
		}
	}
	if wasHit {
		m.c.hostPrefetchHits.Inc()
	}
	m.accountFault(ctx, false)
	p.Sleep(m.Cfg.MinorFaultCost)
	m.accountFaultLatency(start, false, m.Cfg.MinorFaultCost)
}

// MarkWritten records an actual write when EPT dirty bits are available
// (the ablation config); without them writes are implied by MinorMap.
func (m *Manager) MarkWritten(pg *Page) {
	pg.Dirty = true
	pg.TruthClean = false
	if pg.SwapSlot >= 0 {
		m.Swap.Free(pg.SwapSlot)
		pg.SwapSlot = -1
	}
}

// COWBreak handles a guest write to a privately-mapped named page: copy,
// unmap from the file, and treat as anonymous from now on. Per VSwapper's
// design the source copy is removed from the host page cache immediately,
// but reclaim still traverses a lazy entry for it (see Cgroup.lists).
func (m *Manager) COWBreak(p *sim.Proc, pg *Page, ctx Ctx) {
	if pg.State != ResidentFile {
		panic(fmt.Sprintf("hostmm: COWBreak on %s page", pg.State))
	}
	start := m.Env.Now()
	f := pg.Backing.File
	f.RemoveMapping(pg)
	pg.unlist()
	src := &Page{Owner: pg.Owner, ID: pg.ID, SwapSlot: -1, State: Untouched}
	pg.Owner.lists[listLazy].pushFront(src)

	pg.State = ResidentAnon
	pg.Dirty = true
	pg.Backing = BlockRef{}
	pg.TruthClean = false
	pg.TruthBlock = BlockRef{}
	pg.Referenced = true
	pg.Owner.lists[listActiveAnon].pushFront(pg)
	m.c.hostCOWBreaks.Inc()
	m.accountFault(ctx, false)
	p.Sleep(m.Cfg.COWCost)
	m.accountFaultLatency(start, false, m.Cfg.COWCost)
}

// Forget releases whatever the host holds for the page (frame, swap slot,
// file mapping) without any I/O, leaving it Untouched. Used when content
// is about to be entirely superseded (mmap-over by the Mapper) and by the
// balloon path.
func (m *Manager) Forget(pg *Page) {
	pg.unlist()
	switch pg.State {
	case ResidentAnon, ResidentFile:
		if pg.State == ResidentFile {
			pg.Backing.File.RemoveMapping(pg)
		}
		m.unchargeFrame(pg.Owner)
	case FileNonResident:
		pg.Backing.File.RemoveMapping(pg)
	case SwappedOut:
		// slot freed below
	case Untouched, Ballooned:
		// nothing held
	case Emulated:
		panic("hostmm: Forget on emulated page; finish emulation first")
	}
	if pg.SwapSlot >= 0 {
		m.Swap.Free(pg.SwapSlot)
		pg.SwapSlot = -1
	}
	pg.Backing = BlockRef{}
	pg.State = Untouched
	pg.EPT = false
	pg.Dirty = false
	pg.Referenced = false
	pg.TruthClean = false
	pg.TruthBlock = BlockRef{}
}

// BalloonTake is invoked by the balloon hypercall: the guest pinned the
// page and promises not to use it, so the host drops all its state.
func (m *Manager) BalloonTake(pg *Page) {
	m.Forget(pg)
	pg.State = Ballooned
	m.c.balloonInflate.Inc()
}

// BalloonReturn gives a page back to the guest on deflate; its content is
// undefined until first touch.
func (m *Manager) BalloonReturn(pg *Page) {
	if pg.State != Ballooned {
		panic(fmt.Sprintf("hostmm: BalloonReturn on %s page", pg.State))
	}
	pg.State = Untouched
	m.c.balloonDeflate.Inc()
}
