package mem

import (
	"fmt"
	"slices"
)

// tableOutOfRange is the panic value for an index outside a table. It is a
// constant so that the check keeps Get within the inlining budget.
const tableOutOfRange = "mem: table index out of range"

// TableChunk is the number of entries a Table allocates at once.
const TableChunk = 1 << tableChunkBits

const (
	tableChunkBits = 12
	tableChunkMask = TableChunk - 1
)

// Table is a fixed-length array of T that allocates storage one chunk of
// TableChunk entries at a time, on the first Set into the chunk. Entries of
// a chunk never written read as the table's fill value. Swap areas and disk
// block maps are sized to the configured maximum but a run touches a small,
// clustered part of them, so a Table costs what the run touches plus one
// pointer per chunk.
type Table[T comparable] struct {
	chunks []*[TableChunk]T
	fill   T
	n      int64
}

// NewTable returns a table of n entries that all read as fill.
func NewTable[T comparable](n int64, fill T) Table[T] {
	if n < 0 {
		panic(fmt.Sprintf("mem: negative table length %d", n))
	}
	return Table[T]{chunks: make([]*[TableChunk]T, (n+tableChunkMask)>>tableChunkBits), fill: fill, n: n}
}

// Len reports the number of entries.
func (t *Table[T]) Len() int64 { return t.n }

// Get returns entry i.
func (t *Table[T]) Get(i int64) T {
	if uint64(i) >= uint64(t.n) {
		panic(tableOutOfRange)
	}
	if c := t.chunks[i>>tableChunkBits]; c != nil {
		return c[i&tableChunkMask]
	}
	return t.fill
}

// Set stores v at entry i, allocating its chunk if needed.
func (t *Table[T]) Set(i int64, v T) {
	if uint64(i) >= uint64(t.n) {
		panic(tableOutOfRange)
	}
	c := t.chunks[i>>tableChunkBits]
	if c == nil {
		if v == t.fill {
			return // an absent chunk already reads as fill
		}
		c = new([TableChunk]T)
		var zero T
		if t.fill != zero {
			for k := range c {
				c[k] = t.fill
			}
		}
		t.chunks[i>>tableChunkBits] = c
	}
	c[i&tableChunkMask] = v
}

// Span returns the entries from i to the end of i's chunk (or of the
// table, if sooner) as a slice aliasing the table, and the span's length.
// When the chunk was never written the slice is nil and every entry of the
// span reads as the fill value, so scans can step over it in one go.
func (t *Table[T]) Span(i int64) (vals []T, n int64) {
	if uint64(i) >= uint64(t.n) {
		panic(tableOutOfRange)
	}
	end := (i | tableChunkMask) + 1
	if end > t.n {
		end = t.n
	}
	if c := t.chunks[i>>tableChunkBits]; c != nil {
		return c[i&tableChunkMask : end-(i&^tableChunkMask)], end - i
	}
	return nil, end - i
}

// Index returns the first index in [from, to) whose entry equals v, or -1
// if there is none. Chunks never written are stepped over in one go.
func (t *Table[T]) Index(from, to int64, v T) int64 {
	for i := from; i < to; {
		vals, n := t.Span(i)
		n = min(n, to-i)
		if vals == nil {
			if v == t.fill {
				return i
			}
		} else if k := slices.Index(vals[:n], v); k >= 0 {
			return i + int64(k)
		}
		i += n
	}
	return -1
}

// Each calls fn, in index order, for every entry that differs from the
// fill value. Only allocated chunks are visited.
func (t *Table[T]) Each(fn func(i int64, v T)) {
	for ci, c := range t.chunks {
		if c == nil {
			continue
		}
		base := int64(ci) << tableChunkBits
		for k, v := range c {
			if v != t.fill && base+int64(k) < t.n {
				fn(base+int64(k), v)
			}
		}
	}
}
