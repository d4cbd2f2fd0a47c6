package hostmm

import (
	"testing"

	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// BenchmarkLayer reports host-MM per-operation costs, shaped like the
// hostmm probes of the host-cost benchmark (perfbench/probes.go).
func BenchmarkLayer(b *testing.B) {
	// An op is one minor fault on a resident page: EPT map, LRU touch,
	// counters and the inline fault-cost sleep.
	b.Run("hostmm/minor_fault", func(b *testing.B) {
		b.ReportAllocs()
		r := newRig(b, 1<<14, 0)
		r.run(b, func(p *sim.Proc) {
			pages := r.touchN(p, 1<<12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pg := pages[i%len(pages)]
				pg.EPT = false
				r.mgr.MinorMap(p, pg, GuestCtx)
			}
			b.StopTimer()
		})
	})
	// An op is one major fault in a cyclic sweep over twice the cgroup
	// limit: the swap-in with its readahead and the reclaim that makes
	// room, plus the minor faults that map the pages readahead brought in.
	b.Run("hostmm/swap_in", func(b *testing.B) {
		b.ReportAllocs()
		const limit = 512
		r := newRig(b, 1<<14, limit)
		r.run(b, func(p *sim.Proc) {
			pages := r.touchN(p, 2*limit)
			b.ResetTimer()
			for n, i := 0, 0; n < b.N; i++ {
				pg := pages[i%len(pages)]
				if pg.State == SwappedOut {
					r.mgr.SwapIn(p, pg, GuestCtx)
					n++
				}
				if pg.State.Resident() && !pg.EPT {
					r.mgr.MinorMap(p, pg, GuestCtx)
				}
			}
			b.StopTimer()
		})
	})
	// An op is one page visited by reclaim's list scan. Every resident
	// page is pinned, so each visit rotates the page without evicting it:
	// the pure list-walk cost per scanned page.
	b.Run("hostmm/scan_per_page", func(b *testing.B) {
		b.ReportAllocs()
		r := newRig(b, 1<<14, 0)
		r.run(b, func(p *sim.Proc) {
			for _, pg := range r.touchN(p, 1<<12) {
				r.mgr.Pin(pg)
			}
			b.ResetTimer()
			for r.met.Get(metrics.HostPagesScanned) < int64(b.N) {
				r.mgr.ReclaimForTest(p, r.cg, r.mgr.Cfg.ReclaimBatch)
			}
			b.StopTimer()
		})
	})
}

// touchN creates and first-touches n guest pages of the rig's cgroup.
func (r *rig) touchN(p *sim.Proc, n int) []*Page {
	pages := make([]*Page, n)
	for i := range pages {
		pages[i] = r.mgr.NewPage(r.cg, i)
		r.mgr.FirstTouch(p, pages[i], GuestCtx)
	}
	return pages
}
