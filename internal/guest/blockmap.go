package guest

import "vswapsim/internal/mem"

// blockMap maps vdisk blocks to the GFN caching them. It replaces a
// map[int64]int32: the page cache is probed on every guest file read and
// write (plus once per readahead candidate), so lookups must be indexed
// loads. Virtual disks are large and cache occupancy clusters, so the
// table allocates per chunk on first use; absent entries read as nilGFN.
type blockMap struct {
	t mem.Table[int32]
}

func newBlockMap(blocks int64) *blockMap {
	return &blockMap{t: mem.NewTable(blocks, nilGFN)}
}

// get returns the GFN caching block, or (0, false) when absent.
func (m *blockMap) get(block int64) (int32, bool) {
	if g := m.t.Get(block); g >= 0 {
		return g, true
	}
	return 0, false
}

// set records that block is cached in gfn.
func (m *blockMap) set(block int64, gfn int32) { m.t.Set(block, gfn) }

// del removes block's cache entry (no-op when absent).
func (m *blockMap) del(block int64) { m.t.Set(block, nilGFN) }
