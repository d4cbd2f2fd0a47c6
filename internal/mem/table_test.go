package mem

import (
	"math/rand"
	"testing"
)

// flatCheck asserts that tab reads exactly like the flat reference ref,
// through Get, Span and Each.
func flatCheck[T comparable](t *testing.T, tab *Table[T], ref []T, fill T) {
	t.Helper()
	if tab.Len() != int64(len(ref)) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
	}
	for i, want := range ref {
		if got := tab.Get(int64(i)); got != want {
			t.Fatalf("Get(%d) = %v, want %v", i, got, want)
		}
	}
	for i := int64(0); i < tab.Len(); {
		vals, n := tab.Span(i)
		if n <= 0 || i+n > tab.Len() || (i+n)%TableChunk != 0 && i+n != tab.Len() {
			t.Fatalf("Span(%d) length %d does not end at a chunk or table end", i, n)
		}
		if vals != nil && int64(len(vals)) != n {
			t.Fatalf("Span(%d) returned %d values for length %d", i, len(vals), n)
		}
		for k := int64(0); k < n; k++ {
			got := fill
			if vals != nil {
				got = vals[k]
			}
			if got != ref[i+k] {
				t.Fatalf("Span(%d)[%d] = %v, want %v", i, k, got, ref[i+k])
			}
		}
		i += n
	}
	n := int64(len(ref))
	values := map[T]bool{fill: true}
	for _, v := range ref {
		values[v] = true
	}
	bounds := []int64{0, 1, TableChunk - 1, TableChunk, TableChunk + 1, n - 1, n}
	for _, from := range bounds {
		for _, to := range bounds {
			if from < 0 || from > to || to > n {
				continue
			}
			for v := range values {
				want := int64(-1)
				for i := from; i < to; i++ {
					if ref[i] == v {
						want = i
						break
					}
				}
				if got := tab.Index(from, to, v); got != want {
					t.Fatalf("Index(%d, %d, %v) = %d, want %d", from, to, v, got, want)
				}
			}
		}
	}
	seen := make(map[int64]T)
	last := int64(-1)
	tab.Each(func(i int64, v T) {
		if i <= last {
			t.Fatalf("Each visited %d after %d", i, last)
		}
		last = i
		seen[i] = v
	})
	for i, want := range ref {
		got, ok := seen[int64(i)]
		if (want != fill) != ok || ok && got != want {
			t.Fatalf("Each at %d: got %v (visited %v), want %v", i, got, ok, want)
		}
	}
}

// TestTableMatchesFlatReference drives tables of several shapes with set
// sequences and compares every read against a plain slice.
func TestTableMatchesFlatReference(t *testing.T) {
	cases := []struct {
		name string
		n    int64
		fill int32
		sets []int64 // indices written, in order
	}{
		{"empty", 0, -1, nil},
		{"chunk boundary", 2 * TableChunk, -1, []int64{TableChunk - 1, TableChunk}},
		{"last partial chunk", 3*TableChunk + 77, 0, []int64{3 * TableChunk, 3*TableChunk + 76, 5}},
		{"single partial chunk", 100, 7, []int64{0, 99, 50}},
		{"sparse", 16 * TableChunk, -1, []int64{0, 9*TableChunk + 3, 15*TableChunk + TableChunk - 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tab := NewTable(c.n, c.fill)
			ref := make([]int32, c.n)
			for i := range ref {
				ref[i] = c.fill
			}
			flatCheck(t, &tab, ref, c.fill)
			for k, i := range c.sets {
				v := int32(k + 100)
				tab.Set(i, v)
				ref[i] = v
				flatCheck(t, &tab, ref, c.fill)
			}
			// Writing the fill value back reads as fill again.
			for _, i := range c.sets {
				tab.Set(i, c.fill)
				ref[i] = c.fill
			}
			flatCheck(t, &tab, ref, c.fill)
		})
	}
}

// TestTableRandomAgainstFlat interleaves random writes, including fill
// writes, over a table with a partial last chunk.
func TestTableRandomAgainstFlat(t *testing.T) {
	const n = 5*TableChunk + 1234
	rng := rand.New(rand.NewSource(7))
	tab := NewTable(n, true)
	ref := make([]bool, n)
	for i := range ref {
		ref[i] = true
	}
	for step := 0; step < 4000; step++ {
		i := rng.Int63n(n)
		v := rng.Intn(3) == 0
		tab.Set(i, v)
		ref[i] = v
	}
	flatCheck(t, &tab, ref, true)
}

// TestTableAllocatesOnlyWrittenChunks checks the point of the table: a
// fill-valued write allocates nothing, and a real write allocates only the
// chunk it lands in.
func TestTableAllocatesOnlyWrittenChunks(t *testing.T) {
	tab := NewTable[*int](64*TableChunk, nil)
	tab.Set(5*TableChunk, nil)
	x := 1
	tab.Set(7*TableChunk+1, &x)
	live := 0
	for _, c := range tab.chunks {
		if c != nil {
			live++
		}
	}
	if live != 1 || tab.chunks[7] == nil {
		t.Fatalf("%d chunks allocated, want only chunk 7", live)
	}
}

func TestTableOutOfRangePanics(t *testing.T) {
	tab := NewTable(TableChunk+10, false)
	for _, i := range []int64{-1, TableChunk + 10, 2 * TableChunk} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			tab.Get(i)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", i)
				}
			}()
			tab.Set(i, true)
		}()
	}
}
