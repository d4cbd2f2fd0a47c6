// Package hostmm models the host operating system's memory management as
// seen by a hosted hypervisor (KVM/QEMU style): per-guest cgroup limits,
// active/inactive LRU lists with referenced bits, anonymous vs. file-backed
// (named) pages, the host swap area with swap cache and cluster readahead,
// host file page cache with sequential readahead, and private file
// mappings with copy-on-write.
//
// All five pathologies the paper identifies (§3) — silent swap writes,
// stale swap reads, false swap reads, decayed swap sequentiality and false
// page anonymity — arise from the interactions of the mechanisms in this
// package; nothing here special-cases an experiment.
package hostmm

import (
	"fmt"

	"vswapsim/internal/sim"
)

// PageState enumerates where a page's content lives from the host's point
// of view.
type PageState uint8

const (
	// Untouched pages have never been written; the first access allocates
	// a zeroed frame.
	Untouched PageState = iota
	// ResidentAnon pages hold a frame and are anonymous: without EPT
	// dirty-bit support the host must assume their content differs from
	// any disk block.
	ResidentAnon
	// ResidentFile pages hold a frame and are named: clean, backed by
	// Backing, privately mapped (a write triggers a COW break).
	ResidentFile
	// SwappedOut pages live in the host swap area at SwapSlot.
	SwappedOut
	// FileNonResident pages are named but reclaimed: their content is
	// exactly the backing block, so they were discarded without a write.
	FileNonResident
	// Emulated pages are under False Reads Preventer write emulation: no
	// frame, writes buffered, prior content still at SwapSlot/Backing.
	Emulated
	// Ballooned pages were handed to the host by the guest balloon
	// driver; they have no content and no frame.
	Ballooned
)

func (s PageState) String() string {
	switch s {
	case Untouched:
		return "untouched"
	case ResidentAnon:
		return "resident-anon"
	case ResidentFile:
		return "resident-file"
	case SwappedOut:
		return "swapped"
	case FileNonResident:
		return "file-nonresident"
	case Emulated:
		return "emulated"
	case Ballooned:
		return "ballooned"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// Resident reports whether the state implies a held frame.
func (s PageState) Resident() bool {
	return s == ResidentAnon || s == ResidentFile
}

// BlockRef names one 4 KiB block of a host-visible file (a guest disk
// image). The zero value means "no backing".
type BlockRef struct {
	File  *File
	Block int64
}

// Valid reports whether the reference points at a file.
func (b BlockRef) Valid() bool { return b.File != nil }

// Page is the host's view of one page of a QEMU process: either one guest
// frame (identified by GFN) or a page of QEMU's own executable. Pages are
// created lazily on first touch.
//
// A large guest has hundreds of thousands of Pages, so the record is kept
// at 96 bytes: the flags share one word and the LRU list is named by a
// one-byte id that the owning cgroup resolves.
type Page struct {
	Owner *Cgroup
	// ID is the GFN for guest pages; QEMU-internal pages use negative IDs.
	ID    int
	State PageState

	// EPT reports whether the GPA⇒HPA entry is present, i.e. the guest
	// can access the page without a VM exit.
	EPT bool
	// Referenced is the LRU second-chance bit, set on access.
	Referenced bool
	// Dirty is the host's belief about the page differing from swap/disk.
	// Without EPT dirty bits, any guest-mapped anonymous page is dirty.
	Dirty bool

	// Pinned excludes the page from reclaim while a fault handler holds
	// it (the analogue of the Linux page lock).
	Pinned bool

	// TruthClean and TruthBlock are simulator ground truth (metrics
	// only): whether the page's actual content equals a disk block, and
	// which. The host cannot see these; they power the "silent write"
	// counters.
	TruthClean bool

	// list is the id of the Owner's LRU list holding the page (listNone
	// when unlisted).
	list listID

	// fault serializes concurrent fault-ins of the same page: while
	// non-nil, one process is bringing the page in and others wait.
	fault *sim.Signal

	// SwapSlot is the host swap slot holding the content (-1 if none).
	SwapSlot int64
	// Backing is the file block backing a named page.
	Backing    BlockRef
	TruthBlock BlockRef

	// nextMapping chains pages that map the same file block (rare:
	// happens when the guest re-reads a block into a new GFN while an
	// older named page still exists).
	nextMapping *Page

	prev, next *Page
}

// InLRU reports whether the page is currently on one of the cgroup lists.
func (pg *Page) InLRU() bool { return pg.list != listNone }

// unlist removes the page from whichever of its cgroup's lists holds it
// (no-op when unlisted).
func (pg *Page) unlist() {
	if pg.list != listNone {
		pg.Owner.lists[pg.list].remove(pg)
	}
}

// key is a stable per-page identity (cgroup registration order + page ID)
// for the swap backend: per-page properties like compressibility and heat
// must survive slot reuse, so they key by page, not by slot. IDs can be
// negative (QEMU-internal pages); sign extension keeps keys distinct.
func (pg *Page) key() uint64 {
	return uint64(pg.Owner.idx)<<40 ^ uint64(int64(pg.ID))
}

// listID names one of a cgroup's page lists.
type listID uint8

const (
	listNone listID = iota
	listActiveAnon
	listInactiveAnon
	listActiveFile
	listInactiveFile
	listLazy
	numLists
)

var listNames = [numLists]string{
	listActiveAnon:   "active-anon",
	listInactiveAnon: "inactive-anon",
	listActiveFile:   "active-file",
	listInactiveFile: "inactive-file",
	listLazy:         "lazy",
}

// pageList is an intrusive doubly-linked list of pages with O(1) removal.
// Pages are pushed at the front; reclaim scans from the back (oldest).
type pageList struct {
	name string
	id   listID
	head *Page
	tail *Page
	size int
}

func (l *pageList) pushFront(pg *Page) {
	if pg.list != listNone {
		panic("hostmm: page already on a list")
	}
	pg.list = l.id
	pg.prev = nil
	pg.next = l.head
	if l.head != nil {
		l.head.prev = pg
	}
	l.head = pg
	if l.tail == nil {
		l.tail = pg
	}
	l.size++
}

// holds reports whether pg's list backref names l. The id alone is not
// enough: it must resolve to l through the page's own cgroup.
func (l *pageList) holds(pg *Page) bool {
	return pg.list == l.id && &pg.Owner.lists[l.id] == l
}

func (l *pageList) remove(pg *Page) {
	if !l.holds(pg) {
		panic("hostmm: removing page from wrong list")
	}
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		l.head = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		l.tail = pg.prev
	}
	pg.list = listNone
	pg.prev = nil
	pg.next = nil
	l.size--
}

// back returns the oldest page without removing it.
func (l *pageList) back() *Page { return l.tail }

// rotate moves the oldest page to the front (second chance). The page
// stays on the list, so only the links change.
func (l *pageList) rotate() {
	pg := l.tail
	if pg == l.head {
		return // empty or a single page
	}
	l.tail = pg.prev
	l.tail.next = nil
	pg.prev = nil
	pg.next = l.head
	l.head.prev = pg
	l.head = pg
}
