package guest

import (
	"fmt"

	"vswapsim/internal/mem"
)

// VFile is a file on the guest's virtual disk. The tiny extent filesystem
// lays files out contiguously (like a freshly formatted ext4 writing large
// files), which is what gives the disk image the sequential structure the
// Mapper's prefetching benefits from.
type VFile struct {
	Name   string
	Start  int64 // first vdisk block
	Blocks int64
}

// Block translates a file-relative block to a vdisk block.
func (f *VFile) Block(rel int64) int64 {
	if rel < 0 || rel >= f.Blocks {
		panic(fmt.Sprintf("guest: block %d outside file %q", rel, f.Name))
	}
	return f.Start + rel
}

// SizeBytes reports the file size.
func (f *VFile) SizeBytes() int64 { return f.Blocks * pageSizeBytes }

// FileSystem is the guest's extent allocator over its virtual disk. The
// last SwapBlocks blocks form the guest swap partition.
type FileSystem struct {
	totalBlocks int64
	swapBlocks  int64
	next        int64
	files       map[string]*VFile
}

// NewFileSystem creates a filesystem over a virtual disk of totalBlocks,
// reserving swapBlocks at the end as the guest swap partition.
func NewFileSystem(totalBlocks, swapBlocks int64) *FileSystem {
	if swapBlocks >= totalBlocks {
		panic("guest: swap larger than disk")
	}
	return &FileSystem{
		totalBlocks: totalBlocks,
		swapBlocks:  swapBlocks,
		files:       make(map[string]*VFile),
	}
}

// Create allocates a contiguous file of the given size (rounded up to
// whole blocks).
func (fs *FileSystem) Create(name string, sizeBytes int64) *VFile {
	if _, dup := fs.files[name]; dup {
		panic(fmt.Sprintf("guest: file %q exists", name))
	}
	blocks := (sizeBytes + pageSizeBytes - 1) / pageSizeBytes
	if fs.next+blocks > fs.totalBlocks-fs.swapBlocks {
		panic(fmt.Sprintf("guest: disk full creating %q", name))
	}
	f := &VFile{Name: name, Start: fs.next, Blocks: blocks}
	fs.next += blocks
	fs.files[name] = f
	return f
}

// Lookup returns a file by name.
func (fs *FileSystem) Lookup(name string) (*VFile, bool) {
	f, ok := fs.files[name]
	return f, ok
}

// TotalBlocks reports the virtual disk capacity in blocks.
func (fs *FileSystem) TotalBlocks() int64 { return fs.totalBlocks }

// SwapStart reports the first block of the guest swap partition.
func (fs *FileSystem) SwapStart() int64 { return fs.totalBlocks - fs.swapBlocks }

// SwapBlocks reports the guest swap partition size in blocks.
func (fs *FileSystem) SwapBlocks() int64 { return fs.swapBlocks }

// swapOwner identifies the process page stored in a slot, enabling guest
// swap readahead.
type swapOwner struct {
	pr  *Process
	idx int
}

// guestSwap allocates slots in the guest swap partition, lowest-first.
type guestSwap struct {
	start int64 // vdisk block of slot 0
	free  mem.Table[bool]
	hint  int64
	inUse int
	// owner is a per-slot table (pr == nil marks an unowned slot): swap
	// readahead probes consecutive slots on every guest swap-in, so
	// lookups must be indexed loads rather than map probes. Both tables
	// allocate per chunk on first use.
	owner mem.Table[swapOwner]
}

func newGuestSwap(start, blocks int64) *guestSwap {
	return &guestSwap{
		start: start,
		free:  mem.NewTable(blocks, true),
		owner: mem.NewTable(blocks, swapOwner{}),
	}
}

func (g *guestSwap) alloc() int64 {
	i := g.free.Index(g.hint, g.free.Len(), true)
	if i < 0 {
		return -1
	}
	g.free.Set(i, false)
	g.hint = i + 1
	g.inUse++
	return i
}

func (g *guestSwap) release(slot int64) {
	if slot < 0 || slot >= g.free.Len() || g.free.Get(slot) {
		panic(fmt.Sprintf("guest: freeing bad swap slot %d", slot))
	}
	g.free.Set(slot, true)
	if slot < g.hint {
		g.hint = slot
	}
	g.inUse--
	g.owner.Set(slot, swapOwner{})
}

// setOwner records which process page a slot holds.
func (g *guestSwap) setOwner(slot int64, pr *Process, idx int) {
	g.owner.Set(slot, swapOwner{pr: pr, idx: idx})
}

// ownerAt returns the owner of slot (pr == nil when unowned or out of
// range).
func (g *guestSwap) ownerAt(slot int64) swapOwner {
	if slot < 0 || slot >= g.owner.Len() {
		return swapOwner{}
	}
	return g.owner.Get(slot)
}

// block translates a slot to its vdisk block.
func (g *guestSwap) block(slot int64) int64 { return g.start + slot }

func (g *guestSwap) full() bool { return int64(g.inUse) == g.free.Len() }
