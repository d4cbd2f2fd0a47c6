// Package guest models the guest operating system: a Linux-like kernel
// managing the memory the VM believes it owns. It implements a page cache
// with sequential readahead, anonymous process memory, watermark-driven
// reclaim with its own swap partition, a balloon driver, and an OOM killer.
//
// The guest is deliberately oblivious to the host: it caches aggressively,
// recycles page frames freely, and zeroes pages on allocation — exactly the
// behaviours that make uncooperative host swapping expensive (paper §3).
//
// The guest talks to the virtual hardware through the Platform interface,
// implemented by internal/hyper.
package guest

import (
	"vswapsim/internal/fault"
	"vswapsim/internal/mem"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
	"vswapsim/internal/trace"
)

// Platform is the guest's view of the virtual machine: page-granular
// memory accesses (which the hypervisor may trap) and virtio-style disk
// I/O (which the hypervisor emulates).
type Platform interface {
	// TouchPage is an ordinary access to a guest frame.
	TouchPage(p *sim.Proc, gfn int, write bool)
	// OverwritePage overwrites a whole page ignoring prior content (page
	// zeroing, full-page copies). rep marks x86 REP string instructions,
	// which the Preventer can short-circuit.
	OverwritePage(p *sim.Proc, gfn int, rep bool)
	// WriteSpan writes n bytes at offset off within the page, as user
	// code filling a buffer does.
	WriteSpan(p *sim.Proc, gfn int, off, n int)
	// DiskRead reads len(gfns) contiguous virtual-disk blocks starting at
	// start into the given frames. DiskWrite is the reverse.
	DiskRead(p *sim.Proc, gfns []int, start int64)
	DiskWrite(p *sim.Proc, gfns []int, start int64)
	// BalloonRelease pins+donates frames to the host; BalloonReclaim
	// takes them back.
	BalloonRelease(gfns []int)
	BalloonReclaim(gfns []int)
}

// page kinds
const (
	kindFree = iota
	kindCache
	kindAnon
	kindBalloon
	kindKernel
)

// nilGFN terminates intrusive list links.
const nilGFN = int32(-1)

// pageInfo is the guest kernel's metadata for one of its own frames. It is
// kept compact (array-of-structs indexed by GFN) because large guests have
// hundreds of thousands of frames, and pointer-free so the garbage
// collector never scans the array.
type pageInfo struct {
	kind       uint8
	dirty      bool
	referenced bool
	list       uint8 // listNone or a list id
	prev, next int32
	proc       int32 // owner (anon pages): Process.id, 0 = none
	block      int64 // vdisk block (cache pages) or anon index (anon pages)
}

// list ids
const (
	listNone = iota
	listActiveFile
	listInactiveFile
	listActiveAnon
	listInactiveAnon
)

// gfnList is an intrusive list over the OS page array.
type gfnList struct {
	id   uint8
	head int32
	tail int32
	size int
}

func newGFNList(id uint8) gfnList { return gfnList{id: id, head: nilGFN, tail: nilGFN} }

func (l *gfnList) pushFront(os *OS, gfn int32) {
	pi := &os.pages[gfn]
	if pi.list != listNone {
		panic("guest: page already listed")
	}
	pi.list = l.id
	pi.prev = nilGFN
	pi.next = l.head
	if l.head != nilGFN {
		os.pages[l.head].prev = gfn
	}
	l.head = gfn
	if l.tail == nilGFN {
		l.tail = gfn
	}
	l.size++
}

func (l *gfnList) remove(os *OS, gfn int32) {
	pi := &os.pages[gfn]
	if pi.list != l.id {
		panic("guest: removing page from wrong list")
	}
	if pi.prev != nilGFN {
		os.pages[pi.prev].next = pi.next
	} else {
		l.head = pi.next
	}
	if pi.next != nilGFN {
		os.pages[pi.next].prev = pi.prev
	} else {
		l.tail = pi.prev
	}
	pi.list = listNone
	pi.prev = nilGFN
	pi.next = nilGFN
	l.size--
}

func (l *gfnList) back() int32 { return l.tail }

func (l *gfnList) rotate(os *OS, gfn int32) {
	l.remove(os, gfn)
	l.pushFront(os, gfn)
}

// Config holds the guest kernel tunables.
type Config struct {
	// MemPages is the memory size the guest believes it has.
	MemPages int
	// VCPUs is the number of virtual CPUs.
	VCPUs int
	// KernelPages is the unevictable kernel reserve (text, slab, page
	// tables), touched continuously through a small hot set.
	KernelPages int
	// KernelHotPages is the size of the kernel hot set.
	KernelHotPages int
	// ReadaheadMin/Max bound the guest's sequential file readahead.
	ReadaheadMin int
	ReadaheadMax int
	// MinFileFloor mirrors the host's preference for evicting file pages.
	MinFileFloor int
	// DirtyRatioPct throttles writers when dirty cache exceeds this share
	// of memory.
	DirtyRatioPct int
	// OOMLatency: if a single allocation blocks in direct reclaim longer
	// than this, the OOM killer fires (models "reclaim can't keep up").
	OOMLatency sim.Duration
	// OOMConsecIO: if this many consecutive direct-reclaim passes can
	// only free pages through swap/writeback I/O while free memory sits
	// below the low watermark, the OOM killer fires. This is the
	// "over-ballooning" failure the paper observed on KVM guests (§2.4):
	// pinned balloon pages leave reclaim nothing cheap to free during an
	// allocation storm.
	OOMConsecIO int
	// SyscallCost and PerPageCost are the CPU costs of one I/O system
	// call and of the kernel handling one page within it.
	SyscallCost sim.Duration
	PerPageCost sim.Duration
}

// DefaultConfig returns guest tunables resembling the paper's Ubuntu 12.04
// / Linux 3.7 guests.
func DefaultConfig(memPages int) Config {
	return Config{
		MemPages:       memPages,
		VCPUs:          1,
		KernelPages:    memPages / 24,
		KernelHotPages: 192,
		ReadaheadMin:   4,
		ReadaheadMax:   32,
		MinFileFloor:   64,
		DirtyRatioPct:  20,
		OOMLatency:     10 * sim.Second,
		OOMConsecIO:    32,
		SyscallCost:    2 * sim.Microsecond,
		PerPageCost:    200 * sim.Nanosecond,
	}
}

// OS is the guest operating system instance.
type OS struct {
	Env  *sim.Env
	Met  *metrics.Set
	Plat Platform
	Cfg  Config
	FS   *FileSystem

	// Trace, when non-nil, records OOM and balloon events.
	Trace *trace.Ring

	// Inj, when non-nil, injects balloon inflate/deflate refusals (set by
	// the hypervisor alongside Trace; nil = injection off).
	Inj *fault.Injector

	VCPU *sim.Resource

	pages    []pageInfo
	freeList []int32
	freePool int // == len(freeList)

	cache *blockMap // vdisk block -> gfn

	activeFile   gfnList
	inactiveFile gfnList
	activeAnon   gfnList
	inactiveAnon gfnList

	dirtyCount int

	swap *guestSwap

	kernelGFNs []int32
	kernelHot  int // rotating cursor into the hot subset

	balloonGFNs []int32
	balloonGoal int
	balloonWake *sim.Signal

	ra map[*VFile]*raState

	// readBufs is a freelist of readahead scratch buffers. A buffer stays
	// checked out across the blocking DiskRead, and threads interleave at
	// blocking points, so concurrent reads need distinct buffers.
	readBufs []*readBufs

	procs        []*Process
	oomKills     int
	consecIO     int // consecutive reclaim passes that freed only via I/O
	thrashIns    int // guest swap-ins accumulated while ballooned
	watermarkLow int
	watermarkHi  int

	booted   bool
	shutdown bool
}

// NewOS creates a guest OS over the platform. Call Boot from a process
// before using it.
func NewOS(env *sim.Env, met *metrics.Set, plat Platform, fs *FileSystem, cfg Config) *OS {
	if cfg.MemPages <= 0 {
		panic("guest: MemPages must be positive")
	}
	if cfg.VCPUs <= 0 {
		cfg.VCPUs = 1
	}
	os := &OS{
		Env:          env,
		Met:          met,
		Plat:         plat,
		Cfg:          cfg,
		FS:           fs,
		VCPU:         sim.NewResource(env, cfg.VCPUs),
		pages:        make([]pageInfo, cfg.MemPages),
		cache:        newBlockMap(fs.TotalBlocks()),
		activeFile:   newGFNList(listActiveFile),
		inactiveFile: newGFNList(listInactiveFile),
		activeAnon:   newGFNList(listActiveAnon),
		inactiveAnon: newGFNList(listInactiveAnon),
		swap:         newGuestSwap(fs.SwapStart(), fs.SwapBlocks()),
		balloonWake:  nil,
	}
	os.balloonWake = sim.NewSignal(env)
	min := 128 + cfg.MemPages/256
	os.watermarkLow = min * 2
	os.watermarkHi = min * 3
	// All frames start free; populate in reverse so low GFNs are used
	// first (cosmetic but makes traces easier to follow).
	os.freeList = make([]int32, 0, cfg.MemPages)
	for gfn := cfg.MemPages - 1; gfn >= 0; gfn-- {
		os.freeList = append(os.freeList, int32(gfn))
	}
	os.freePool = len(os.freeList)
	return os
}

// Boot reserves and touches the kernel pages. It must run once, inside a
// simulated process, before any workload uses the OS.
func (os *OS) Boot(p *sim.Proc) {
	if os.booted {
		panic("guest: double boot")
	}
	os.booted = true
	for i := 0; i < os.Cfg.KernelPages; i++ {
		gfn := os.takeFree(p)
		os.pages[gfn].kind = kindKernel
		os.kernelGFNs = append(os.kernelGFNs, gfn)
		// Kernel pages are written during boot (zeroed, initialized).
		os.Plat.OverwritePage(p, int(gfn), true)
	}
	os.Env.Go(os.name()+"-balloond", os.balloonLoop)
	os.Env.Go(os.name()+"-kswapd", os.kswapdLoop)
}

// kswapdLoop is the guest's background reclaimer: it refills the free
// reserve so allocations rarely enter direct reclaim. It never OOM-kills;
// the over-ballooning detectors live on the direct path.
func (os *OS) kswapdLoop(p *sim.Proc) {
	t := &Thread{OS: os, P: p}
	for !os.shutdown {
		if os.freePool < os.watermarkLow {
			for os.freePool < os.watermarkHi && !os.shutdown {
				n, _, _ := os.shrinkLists(t, os.watermarkHi-os.freePool)
				if n == 0 {
					break
				}
			}
		}
		p.Sleep(250 * sim.Millisecond)
	}
}

func (os *OS) name() string { return "guest" }

// FreePages reports the free-frame count the guest believes it has.
func (os *OS) FreePages() int { return os.freePool }

// CachePages reports the page-cache size in pages.
func (os *OS) CachePages() int {
	return os.activeFile.size + os.inactiveFile.size
}

// DirtyCachePages reports how many cache pages are dirty.
func (os *OS) DirtyCachePages() int { return os.dirtyCount }

// AnonPages reports resident anonymous pages.
func (os *OS) AnonPages() int { return os.activeAnon.size + os.inactiveAnon.size }

// BalloonPages reports the current balloon size in pages.
func (os *OS) BalloonPages() int { return len(os.balloonGFNs) }

// OOMKills reports how many times the OOM killer fired.
func (os *OS) OOMKills() int { return os.oomKills }

// touchKernel keeps the kernel hot set warm: every syscall-ish operation
// touches the next page of the hot set (round-robin).
func (os *OS) touchKernel(p *sim.Proc) {
	if len(os.kernelGFNs) == 0 {
		return
	}
	hot := os.Cfg.KernelHotPages
	if hot > len(os.kernelGFNs) {
		hot = len(os.kernelGFNs)
	}
	gfn := os.kernelGFNs[os.kernelHot%hot]
	os.kernelHot++
	os.Plat.TouchPage(p, int(gfn), false)
}

// pageSizeBytes is re-exported for workloads.
const pageSizeBytes = mem.PageSize
