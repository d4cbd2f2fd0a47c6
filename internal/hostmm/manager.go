package hostmm

import (
	"fmt"

	"vswapsim/internal/disk"
	"vswapsim/internal/fault"
	"vswapsim/internal/mem"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
	"vswapsim/internal/swapback"
	"vswapsim/internal/trace"
)

// Ctx says on whose behalf a fault is being handled, which the paper's
// Fig. 9 distinguishes: faults while host (QEMU) code runs versus EPT
// violations while the guest runs.
type Ctx uint8

const (
	// HostCtx: QEMU/host kernel code touched the page (virtio emulation,
	// QEMU text, reclaim).
	HostCtx Ctx = iota
	// GuestCtx: the guest touched the page (EPT violation).
	GuestCtx
)

// Config holds the host MM tunables. Zero values are replaced by defaults
// mirroring Linux 3.x as used in the paper's testbed.
type Config struct {
	// SwapClusterPages is the swap readahead cluster (Linux page-cluster=3
	// means 8 pages).
	SwapClusterPages int
	// FileRAMinPages / FileRAMaxPages bound the sequential file readahead
	// window.
	FileRAMinPages int
	FileRAMaxPages int
	// ReclaimBatch is how many pages one direct-reclaim pass targets.
	ReclaimBatch int
	// MinFileFloor: below this many inactive file pages, reclaim turns to
	// the anonymous lists (mirrors Linux preferring file pages while any
	// meaningful number remain).
	MinFileFloor int
	// PageScanCost is CPU per page considered by reclaim.
	PageScanCost sim.Duration
	// MajorFaultCost / MinorFaultCost are the CPU costs of fault handling
	// (exits, walks), excluding disk time.
	MajorFaultCost sim.Duration
	MinorFaultCost sim.Duration
	// COWCost is the CPU cost of a copy-on-write break (exit + 4 KiB copy).
	COWCost sim.Duration
	// WritebackCongestion bounds how much queued swap writeback a
	// direct-reclaimer may leave behind: if the device backlog exceeds
	// this, reclaim waits (Linux's congestion_wait).
	WritebackCongestion sim.Duration
	// EPTDirtyBits simulates post-Haswell hardware that exposes guest
	// dirty bits, letting the host skip swap writes for clean pages
	// (paper §5.3 predicts this; we offer it as an ablation).
	EPTDirtyBits bool
}

// DefaultConfig returns the Linux-3.x-like defaults.
func DefaultConfig() Config {
	return Config{
		SwapClusterPages:    8,
		FileRAMinPages:      4,
		FileRAMaxPages:      32,
		ReclaimBatch:        32,
		MinFileFloor:        64,
		PageScanCost:        80 * sim.Nanosecond,
		MajorFaultCost:      5 * sim.Microsecond,
		MinorFaultCost:      1200 * sim.Nanosecond,
		COWCost:             3 * sim.Microsecond,
		WritebackCongestion: 100 * sim.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.SwapClusterPages == 0 {
		c.SwapClusterPages = d.SwapClusterPages
	}
	if c.FileRAMinPages == 0 {
		c.FileRAMinPages = d.FileRAMinPages
	}
	if c.FileRAMaxPages == 0 {
		c.FileRAMaxPages = d.FileRAMaxPages
	}
	if c.ReclaimBatch == 0 {
		c.ReclaimBatch = d.ReclaimBatch
	}
	if c.MinFileFloor == 0 {
		c.MinFileFloor = d.MinFileFloor
	}
	if c.PageScanCost == 0 {
		c.PageScanCost = d.PageScanCost
	}
	if c.MajorFaultCost == 0 {
		c.MajorFaultCost = d.MajorFaultCost
	}
	if c.MinorFaultCost == 0 {
		c.MinorFaultCost = d.MinorFaultCost
	}
	if c.COWCost == 0 {
		c.COWCost = d.COWCost
	}
	if c.WritebackCongestion == 0 {
		c.WritebackCongestion = d.WritebackCongestion
	}
	return c
}

// Manager is the host kernel's memory manager.
type Manager struct {
	Env  *sim.Env
	Met  *metrics.Set
	Dev  *disk.Device
	Pool *mem.FramePool
	Swap *SwapArea
	Cfg  Config

	// Back is the swap destination: all swap reads and writebacks go
	// through it. NewManager installs a transparent HDD store over Dev;
	// the hypervisor swaps in a tiered backend via SetBackend. File-backed
	// I/O (FileFaultIn, guest images) stays on the raw device.
	Back *swapback.Store

	// Trace, when non-nil, records fault/reclaim events for debugging.
	Trace *trace.Ring

	// Inj, when non-nil, injects transient swap-in failures and swap-slot
	// allocation refusals (set by the hypervisor; nil = injection off).
	Inj *fault.Injector

	cgroups []*Cgroup

	// pageSlab amortizes Page allocation: guests have hundreds of
	// thousands of lazily-created pages and individual allocations cost
	// real GC time at fig14 scale.
	pageSlab []Page
	// signalPool recycles fault-serialization signals.
	signalPool []*sim.Signal

	// c holds pre-resolved counter and histogram handles for the fault and
	// reclaim fast paths: one map lookup each at construction instead of a
	// string hash per fault.
	c hotMetrics

	// Scratch buffers reused across reclaim passes and swap-in faults;
	// buffers held across a blocking point come from swapInScratch so
	// interleaved faults never share one.
	swapWritesScratch []int64
	swapInScratch     []*swapInBufs
}

// hotMetrics caches handles for every metric the per-fault and per-reclaim
// paths touch.
type hotMetrics struct {
	faultsInGuest, majorInGuest, faultsInHost   *metrics.Counter
	majorFaults, minorFaults, timeHostFault     *metrics.Counter
	imageReadSectors                            *metrics.Counter
	hostSwapIns, hostSwapOuts                   *metrics.Counter
	hostSwapPrefetched, hostFilePrefetched      *metrics.Counter
	hostPrefetchHits, hostCOWBreaks             *metrics.Counter
	pagesScanned, pagesReclaimed, fileDiscards  *metrics.Counter
	silentSwapWrites, timeReclaimScan           *metrics.Counter
	balloonInflate, balloonDeflate              *metrics.Counter
	faultSwapInRetries, faultSwapInPoisoned     *metrics.Counter
	histFaultMinor, histFaultMajor, histBackoff *metrics.Histogram
}

func newHotMetrics(met *metrics.Set) hotMetrics {
	return hotMetrics{
		faultsInGuest:       met.Counter(metrics.HostFaultsInGuest),
		majorInGuest:        met.Counter(metrics.HostMajorInGuest),
		faultsInHost:        met.Counter(metrics.HostFaultsInHost),
		majorFaults:         met.Counter(metrics.HostMajorFaults),
		minorFaults:         met.Counter(metrics.HostMinorFaults),
		timeHostFault:       met.Counter(metrics.TimeHostFault),
		imageReadSectors:    met.Counter(metrics.ImageReadSectors),
		hostSwapIns:         met.Counter(metrics.HostSwapIns),
		hostSwapOuts:        met.Counter(metrics.HostSwapOuts),
		hostSwapPrefetched:  met.Counter(metrics.HostSwapPrefetched),
		hostFilePrefetched:  met.Counter(metrics.HostFilePrefetched),
		hostPrefetchHits:    met.Counter(metrics.HostPrefetchHits),
		hostCOWBreaks:       met.Counter(metrics.HostCOWBreaks),
		pagesScanned:        met.Counter(metrics.HostPagesScanned),
		pagesReclaimed:      met.Counter(metrics.HostPagesReclaimed),
		fileDiscards:        met.Counter(metrics.HostFileDiscards),
		silentSwapWrites:    met.Counter(metrics.SilentSwapWrites),
		timeReclaimScan:     met.Counter(metrics.TimeReclaimScan),
		balloonInflate:      met.Counter(metrics.BalloonInflatePages),
		balloonDeflate:      met.Counter(metrics.BalloonDeflatePages),
		faultSwapInRetries:  met.Counter(metrics.FaultSwapInRetries),
		faultSwapInPoisoned: met.Counter(metrics.FaultSwapInPoisoned),
		histFaultMinor:      met.Histogram(metrics.HistFaultMinor),
		histFaultMajor:      met.Histogram(metrics.HistFaultMajor),
		histBackoff:         met.Histogram(metrics.HistFaultBackoff),
	}
}

// swapInBufs is the per-fault scratch a swap-in holds across its blocking
// points (disk reads, reclaim): recycled through Manager.swapInScratch.
type swapInBufs struct {
	ioSlots []int64
	pinned  []*Page
}

func (m *Manager) getSwapInBufs() *swapInBufs {
	if n := len(m.swapInScratch); n > 0 {
		b := m.swapInScratch[n-1]
		m.swapInScratch = m.swapInScratch[:n-1]
		return b
	}
	return &swapInBufs{}
}

func (m *Manager) putSwapInBufs(b *swapInBufs) {
	b.ioSlots = b.ioSlots[:0]
	for i := range b.pinned {
		b.pinned[i] = nil
	}
	b.pinned = b.pinned[:0]
	m.swapInScratch = append(m.swapInScratch, b)
}

// NewManager assembles a host MM over the given device, frame pool and
// swap area.
func NewManager(env *sim.Env, met *metrics.Set, dev *disk.Device, pool *mem.FramePool, swap *SwapArea, cfg Config) *Manager {
	m := &Manager{
		Env:  env,
		Met:  met,
		Dev:  dev,
		Pool: pool,
		Swap: swap,
		Cfg:  cfg.withDefaults(),
		c:    newHotMetrics(met),
	}
	// Default backend: the raw device, request-for-request identical to
	// the pre-backend swap path.
	m.SetBackend(swapback.New(swapback.Config{
		Kind: swapback.HDD,
		Env:  env,
		Met:  met,
		Dev:  dev,
		Phys: swap.Phys,
	}))
	return m
}

// SetBackend routes all subsequent swap I/O through st: it installs the
// slot-identity resolver (so tiered backends can key per-page properties
// by page, surviving slot reuse) and hooks slot frees so fast-tier copies
// die with their slot.
func (m *Manager) SetBackend(st *swapback.Store) {
	m.Back = st
	st.SetOwnerKey(func(slot int64) uint64 {
		if pg := m.Swap.Owner(slot); pg != nil {
			return pg.key()
		}
		return uint64(slot)
	})
	m.Swap.onFree = st.Free
}

// Cgroup is a memory control group bounding one QEMU process (one guest).
// The experiments constrain guest memory with cgroups exactly as the paper
// recommends for KVM.
type Cgroup struct {
	Name  string
	Limit int // max resident pages; 0 = bounded only by the global pool

	mgr *Manager
	// idx is the cgroup's registration order, combined with page IDs into
	// a stable per-page identity for the swap backend.
	idx      int
	resident int
	pinned   int

	// lists holds the active/inactive anon and file LRU lists, indexed by
	// listID. The lazy list holds COW source pages VSwapper dropped from
	// the host page cache; reclaim frees them on sight but still "scans"
	// them, which reproduces the paper's observation that VSwapper can
	// double reclaim traversal lengths under low pressure (§5.3, Fig. 11c).
	lists [numLists]pageList
}

// NewCgroup registers a new control group.
func (m *Manager) NewCgroup(name string, limitPages int) *Cgroup {
	cg := &Cgroup{Name: name, Limit: limitPages, mgr: m, idx: len(m.cgroups)}
	for id := listActiveAnon; id < numLists; id++ {
		cg.lists[id].name = name + "/" + listNames[id]
		cg.lists[id].id = id
	}
	m.cgroups = append(m.cgroups, cg)
	return cg
}

// Resident reports the pages currently charged to the cgroup.
func (cg *Cgroup) Resident() int { return cg.resident }

// Pinned reports the pages currently excluded from reclaim (mid-fault or
// DMA-held); a cgroup cannot be torn down while any remain.
func (cg *Cgroup) Pinned() int { return cg.pinned }

// DrainLazy discards every lazily-freed COW source still queued on the
// cgroup (they hold no frames), leaving the lazy list empty. Used when a
// guest is being torn down: the audit requires the cgroup's lists to end
// empty, and lazy entries are reachable only through this list.
func (m *Manager) DrainLazy(cg *Cgroup) {
	for {
		pg := cg.lists[listLazy].back()
		if pg == nil {
			return
		}
		cg.lists[listLazy].remove(pg)
		pg.State = Untouched
	}
}

// SetLimit adjusts the cgroup limit; the next charge enforces it.
func (cg *Cgroup) SetLimit(pages int) { cg.Limit = pages }

// AnonPages and FilePages report LRU sizes (for tests and introspection).
func (cg *Cgroup) AnonPages() int {
	return cg.lists[listActiveAnon].size + cg.lists[listInactiveAnon].size
}

// FilePages reports the pages on the file LRU lists.
func (cg *Cgroup) FilePages() int {
	return cg.lists[listActiveFile].size + cg.lists[listInactiveFile].size
}

// pin/unpin exclude a page from reclaim during a fault and keep count so
// that prefetch never pins away the last evictable page of a cgroup.
func (m *Manager) pin(pg *Page) {
	if !pg.Pinned {
		pg.Pinned = true
		pg.Owner.pinned++
	}
}

func (m *Manager) unpin(pg *Page) {
	if pg.Pinned {
		pg.Pinned = false
		pg.Owner.pinned--
	}
}

// Pin and Unpin expose the page lock to the hypervisor layer (e.g. to hold
// DMA targets resident across a device transfer).
func (m *Manager) Pin(pg *Page)   { m.pin(pg) }
func (m *Manager) Unpin(pg *Page) { m.unpin(pg) }

// canPrefetchInto reports whether charging one more pinned page to cg is
// safe: either there is slack, or at least one evictable page remains.
func (m *Manager) canPrefetchInto(cg *Cgroup) bool {
	if cg.Limit > 0 && cg.pinned+2 > cg.Limit {
		return false
	}
	return true
}

// Touch marks a page accessed. A second access while on an inactive list
// promotes the page to the matching active list (Linux-style two-touch
// activation).
func (m *Manager) Touch(pg *Page) {
	if !pg.Referenced {
		pg.Referenced = true
		return
	}
	cg := pg.Owner
	switch pg.list {
	case listInactiveAnon:
		cg.lists[listInactiveAnon].remove(pg)
		cg.lists[listActiveAnon].pushFront(pg)
	case listInactiveFile:
		cg.lists[listInactiveFile].remove(pg)
		cg.lists[listActiveFile].pushFront(pg)
	}
}

// chargeFrames makes room for and charges n frames to cg, running direct
// reclaim on behalf of p as needed.
func (m *Manager) chargeFrames(p *sim.Proc, cg *Cgroup, n int) {
	for attempt := 0; ; attempt++ {
		need := 0
		if cg.Limit > 0 && cg.resident+n > cg.Limit {
			need = cg.resident + n - cg.Limit
		}
		if short := n - m.Pool.Free(); short > need {
			need = short
		}
		if need == 0 {
			break
		}
		if attempt > 1_000_000 {
			panic(fmt.Sprintf("hostmm: reclaim cannot satisfy %d pages for %s (resident=%d pinned=%d anonA=%d anonI=%d fileA=%d fileI=%d lazy=%d poolFree=%d)",
				n, cg.Name, cg.resident, cg.pinned, cg.lists[listActiveAnon].size, cg.lists[listInactiveAnon].size, cg.lists[listActiveFile].size, cg.lists[listInactiveFile].size, cg.lists[listLazy].size, m.Pool.Free()))
		}
		victim := cg
		if !(cg.Limit > 0 && cg.resident+n > cg.Limit) {
			victim = m.largestCgroup()
		}
		// Like Linux's SWAP_CLUSTER_MAX, reclaim a full batch even for a
		// single-page shortage: it amortizes scanning and keeps swap
		// writeback in large contiguous requests.
		if need < m.Cfg.ReclaimBatch {
			need = m.Cfg.ReclaimBatch
		}
		m.reclaim(p, victim, need)
	}
	m.Pool.Grab(n)
	cg.resident += n
}

func (m *Manager) unchargeFrame(cg *Cgroup) {
	m.Pool.Release(1)
	cg.resident--
}

func (m *Manager) largestCgroup() *Cgroup {
	var best *Cgroup
	for _, cg := range m.cgroups {
		if best == nil || cg.resident > best.resident {
			best = cg
		}
	}
	return best
}

// reclaim frees at least `target` frames from cg (best effort), charging
// scan CPU time to p and queueing swap writes asynchronously, as Linux
// writeback does.
func (m *Manager) reclaim(p *sim.Proc, cg *Cgroup, target int) int {
	freed := 0
	scanned := 0
	// Slots to write, coalesced at the end. Reclaim never blocks while
	// appending (all sleeps happen after submission), so one manager-level
	// scratch buffer is safe to reuse across every pass.
	swapWrites := m.swapWritesScratch[:0]

	// Drop lazily-freed COW sources first: free, but they cost scan work.
	for freed < target {
		pg := cg.lists[listLazy].back()
		if pg == nil {
			break
		}
		scanned++
		cg.lists[listLazy].remove(pg)
		pg.State = Untouched
		freed++ // no frame held; still counts as progress for the scan
	}

	rounds := 0
	for freed < target {
		rounds++
		if rounds > 4 {
			break // let the caller loop; avoids unbounded passes
		}
		// Rebalance: keep inactive lists at least as long as active ones.
		for cg.lists[listInactiveFile].size < cg.lists[listActiveFile].size {
			pg := cg.lists[listActiveFile].back()
			cg.lists[listActiveFile].remove(pg)
			pg.Referenced = false
			cg.lists[listInactiveFile].pushFront(pg)
			scanned++
		}
		for cg.lists[listInactiveAnon].size < cg.lists[listActiveAnon].size {
			pg := cg.lists[listActiveAnon].back()
			cg.lists[listActiveAnon].remove(pg)
			pg.Referenced = false
			cg.lists[listInactiveAnon].pushFront(pg)
			scanned++
		}

		// Linux prefers file pages while a meaningful number remain, but
		// desperation falls back to whichever list can make progress
		// (e.g. when every anon page is pinned by in-flight faults).
		candidates := [2]*pageList{&cg.lists[listInactiveFile], &cg.lists[listInactiveAnon]}
		if cg.lists[listInactiveFile].size <= m.Cfg.MinFileFloor {
			candidates[0], candidates[1] = candidates[1], candidates[0]
		}
		if candidates[0].size == 0 && candidates[1].size == 0 {
			break // nothing evictable
		}

		freedBefore := freed
		for _, list := range candidates {
			if freed >= target {
				break
			}
			n, sawEvictable := m.scanList(list, cg, target-freed, &scanned, &swapWrites)
			freed += n
			if sawEvictable {
				// The preferred list can make progress (now or after its
				// referenced pages age); don't raid the other list.
				break
			}
		}

		// If a whole batch freed nothing (e.g. the inactive list is all
		// pinned fault pages), force-deactivate from the active lists so
		// the next round can make progress.
		if freed == freedBefore {
			for _, pair := range [][2]*pageList{
				{&cg.lists[listActiveAnon], &cg.lists[listInactiveAnon]},
				{&cg.lists[listActiveFile], &cg.lists[listInactiveFile]},
			} {
				active, inactive := pair[0], pair[1]
				for i := 0; i < m.Cfg.ReclaimBatch && active.size > 0; i++ {
					pg := active.back()
					active.remove(pg)
					pg.Referenced = false
					inactive.pushFront(pg)
					scanned++
				}
			}
		}
	}

	m.c.pagesScanned.Add(int64(scanned))
	if m.Trace.Recording(trace.Reclaim) {
		m.Trace.Add(m.Env.Now(), trace.Reclaim, "cg=%s freed=%d scanned=%d swapwrites=%d",
			cg.Name, freed, scanned, len(swapWrites))
	}
	if len(swapWrites) > 0 {
		m.submitSwapWrites(swapWrites)
	}
	m.swapWritesScratch = swapWrites[:0]
	if p != nil && scanned > 0 {
		scanTime := sim.Duration(scanned) * m.Cfg.PageScanCost
		m.c.timeReclaimScan.Add(int64(scanTime))
		p.Sleep(scanTime)
	}
	// Writeback congestion: don't let a reclaimer run ahead of the disk
	// indefinitely; wait until the queued backlog is bounded.
	if p != nil && len(swapWrites) > 0 {
		if backlog := m.Back.Backlog(); backlog > m.Cfg.WritebackCongestion {
			p.Sleep(backlog - m.Cfg.WritebackCongestion)
		}
	}
	return freed
}

// scanList evicts up to one batch from an inactive list, rotating pinned
// and referenced pages. It returns the number of frames freed and whether
// the list held any unpinned page (i.e. it can eventually make progress).
func (m *Manager) scanList(list *pageList, cg *Cgroup, target int, scanned *int, swapWrites *[]int64) (int, bool) {
	freed := 0
	sawEvictable := false
	batch := m.Cfg.ReclaimBatch
	for i := 0; i < batch && freed < target && list.size > 0; i++ {
		pg := list.back()
		(*scanned)++
		if pg.Pinned {
			list.rotate()
			continue
		}
		sawEvictable = true
		if pg.Referenced {
			pg.Referenced = false
			list.rotate()
			continue
		}
		switch pg.State {
		case ResidentFile:
			list.remove(pg)
			pg.State = FileNonResident
			pg.EPT = false
			m.unchargeFrame(cg)
			m.c.fileDiscards.Inc()
			m.c.pagesReclaimed.Inc()
			freed++
		case ResidentAnon:
			if !pg.Dirty && !m.swapCacheValid(pg) {
				// The swap-cache association was lost (e.g. the slot was
				// poisoned after repeated transient read failures): this
				// frame is the only copy of the content, so eviction must
				// write it out rather than trust a stale or missing slot.
				// Without this guard the page would go SwappedOut with no
				// backing read ever reaching it — silent content loss.
				pg.Dirty = true
			}
			if pg.Dirty {
				slot := pg.SwapSlot
				if slot < 0 {
					if m.Inj.SlotRefused() {
						list.rotate() // injected allocator refusal
						continue
					}
					slot = m.Swap.Alloc(pg)
					if slot < 0 {
						list.rotate() // swap full; skip
						continue
					}
					pg.SwapSlot = slot
				}
				*swapWrites = append(*swapWrites, slot)
				m.c.hostSwapOuts.Inc()
				if pg.TruthClean {
					m.c.silentSwapWrites.Inc()
				}
			}
			list.remove(pg)
			pg.State = SwappedOut
			pg.EPT = false
			pg.Dirty = false
			m.unchargeFrame(cg)
			m.c.pagesReclaimed.Inc()
			freed++
		default:
			panic(fmt.Sprintf("hostmm: %s page on LRU", pg.State))
		}
	}
	return freed, sawEvictable
}

// submitSwapWrites queues the dirty victims' slots to disk, coalescing
// contiguous slots into single requests (Linux swap writeback clusters the
// same way). Writes are asynchronous: the device queue delays later reads,
// modelling writeback pressure.
func (m *Manager) submitSwapWrites(slots []int64) {
	// slots arrive in allocation order, which is ascending for fresh
	// allocations but may interleave reused slots; sort-free coalescing of
	// ascending runs is enough.
	start := 0
	for i := 1; i <= len(slots); i++ {
		if i < len(slots) && slots[i] == slots[i-1]+1 {
			continue
		}
		m.Back.SubmitWrite(slots[start:i])
		start = i
	}
}

// swapCacheValid reports whether a clean resident-anon page still has a
// valid swap-cache backing: an allocated slot recording it as owner.
// Every code path that creates a clean ResidentAnon page leaves one in
// place; losing it (slot poisoning) demotes the page to plain dirty swap.
func (m *Manager) swapCacheValid(pg *Page) bool {
	return pg.SwapSlot >= 0 && m.Swap.Owner(pg.SwapSlot) == pg
}

// ReclaimForTest exposes reclaim for white-box tests.
func (m *Manager) ReclaimForTest(p *sim.Proc, cg *Cgroup, target int) int {
	return m.reclaim(p, cg, target)
}
