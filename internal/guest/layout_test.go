package guest

import (
	"math/rand"
	"testing"
	"unsafe"

	"vswapsim/internal/mem"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// TestPageInfoSize pins the per-frame record at 24 bytes with no pointer:
// every guest carries one per frame of its memory.
func TestPageInfoSize(t *testing.T) {
	if sz := unsafe.Sizeof(pageInfo{}); sz > 24 {
		t.Fatalf("sizeof(pageInfo) = %d, want <= 24", sz)
	}
}

// TestReserveAllocatesOnce: one Reserve is one allocation, not a chain of
// doubling appends.
func TestReserveAllocatesOnce(t *testing.T) {
	pr := &Process{}
	allocs := testing.AllocsPerRun(10, func() {
		pr.slots = nil
		pr.Reserve(1 << 16)
	})
	if allocs != 1 {
		t.Fatalf("Reserve(1<<16) made %v allocations, want 1", allocs)
	}
	if first := pr.Reserve(3); first != 1<<16 || pr.Pages() != 1<<16+3 {
		t.Fatalf("second Reserve: first=%d pages=%d", first, pr.Pages())
	}
	for i, s := range pr.slots {
		if s != (anonSlot{state: anonNone, gfn: nilGFN, slot: -1}) {
			t.Fatalf("slot %d = %+v, want an unbacked slot", i, s)
		}
	}
}

// TestGuestSwapMatchesLowestFree compares the lazily allocated guest swap
// allocator with a flat lowest-free model over random churn spanning
// several table chunks.
func TestGuestSwapMatchesLowestFree(t *testing.T) {
	const n = 3*mem.TableChunk + 55
	gs := newGuestSwap(100, n)
	used := make([]bool, n)
	rng := rand.New(rand.NewSource(3))
	var live []int64
	for step := 0; step < 30000; step++ {
		if len(live) == 0 || rng.Intn(4) > 0 {
			want := int64(-1)
			for i := range used {
				if !used[i] {
					want = int64(i)
					break
				}
			}
			if got := gs.alloc(); got != want {
				t.Fatalf("step %d: alloc = %d, want %d", step, got, want)
			}
			if want >= 0 {
				used[want] = true
				live = append(live, want)
			}
			continue
		}
		k := rng.Intn(len(live))
		gs.release(live[k])
		used[live[k]] = false
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	if gs.inUse != len(live) || gs.full() != (len(live) == n) {
		t.Fatalf("inUse=%d full=%v with %d live", gs.inUse, gs.full(), len(live))
	}
}

// BenchmarkLayer reports guest-side per-operation costs, shaped like the
// guest probes of the host-cost benchmark (perfbench/probes.go).
func BenchmarkLayer(b *testing.B) {
	// An op is one anonymous touch that hits a resident frame: the slot
	// lookup, the LRU touch of the frame's record and the platform access.
	// The process spans 64Ki pages, the fig14 guest at scale 0.125.
	b.Run("guest/touch_lru", func(b *testing.B) {
		b.ReportAllocs()
		const pages = 1 << 16
		env := sim.NewEnv(1)
		fs := NewFileSystem(1<<20, 1<<15)
		os := NewOS(env, metrics.NewSet(), &fakePlat{env: env}, fs, DefaultConfig(2*pages))
		pr := os.NewProcess("bench")
		pr.Reserve(pages)
		env.Go("main", func(p *sim.Proc) {
			os.Boot(p)
			t := &Thread{OS: os, P: p}
			for i := 0; i < pages; i++ {
				t.TouchAnon(pr, i, true)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.TouchAnon(pr, i%pages, false)
			}
			b.StopTimer()
			os.Shutdown()
		})
		env.Run()
	})
}
