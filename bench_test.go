// Benchmarks regenerating the paper's evaluation artifacts: one benchmark
// per table and figure (BenchmarkFig3 … BenchmarkTable2), plus ablations.
// Each iteration runs the full experiment at a reduced scale so `go test
// -bench=.` finishes in minutes; the full-size numbers come from
// `go run ./cmd/vswapsim report` (see EXPERIMENTS.md).
//
// Reported custom metrics are virtual (simulated) seconds, not wall time:
// "vsec/baseline" is what the paper plots on its y-axes.
package vswapsim

import (
	"strconv"
	"strings"
	"testing"

	"vswapsim/internal/experiment"
)

// benchOpts keeps benchmark iterations affordable while preserving shape.
func benchOpts() experiment.Options {
	return experiment.Options{Seed: 42, Scale: 0.25, Quick: true}
}

// reportCells extracts numeric cells of a table column keyed by the first
// column, exposing them as benchmark metrics.
func reportCells(b *testing.B, rep *experiment.Report, tableIdx, col int, unit string) {
	if tableIdx >= len(rep.Tables) {
		return
	}
	tab := rep.Tables[tableIdx]
	for _, row := range tab.Rows {
		if col >= len(row) {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(row[col])[0], 64)
		if err != nil {
			continue
		}
		name := strings.ReplaceAll(row[0], " ", "_")
		b.ReportMetric(v, unit+"/"+name)
	}
}

func runExperimentBench(b *testing.B, id string) *experiment.Report {
	b.Helper()
	e, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var rep *experiment.Report
	for i := 0; i < b.N; i++ {
		rep = e.Run(benchOpts())
	}
	return rep
}

func BenchmarkFig3(b *testing.B) {
	rep := runExperimentBench(b, "fig3")
	reportCells(b, rep, 0, 1, "vsec")
}

func BenchmarkFig4(b *testing.B) {
	rep := runExperimentBench(b, "fig4")
	reportCells(b, rep, 0, 1, "vsec")
}

func BenchmarkFig5(b *testing.B) {
	rep := runExperimentBench(b, "fig5")
	// Report the tightest memory point (last row): baseline column.
	tab := rep.Tables[0]
	last := tab.Rows[len(tab.Rows)-1]
	for i, cfg := range tab.Columns[1:] {
		if v, err := strconv.ParseFloat(strings.Fields(last[i+1])[0], 64); err == nil {
			b.ReportMetric(v, "vsec/"+cfg)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	rep := runExperimentBench(b, "fig9")
	// Panel (a), first and last iterations of the baseline column: the
	// U-shape endpoints.
	tab := rep.Tables[0]
	if v, err := strconv.ParseFloat(tab.Rows[0][1], 64); err == nil {
		b.ReportMetric(v, "vsec/baseline_iter1")
	}
	if v, err := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64); err == nil {
		b.ReportMetric(v, "vsec/baseline_last")
	}
}

func BenchmarkFig10(b *testing.B) {
	rep := runExperimentBench(b, "fig10")
	reportCells(b, rep, 0, 1, "vsec")
}

func BenchmarkFig11(b *testing.B) {
	rep := runExperimentBench(b, "fig11")
	// Panel (b): swap write sectors at the tightest point.
	tab := rep.Tables[1]
	last := tab.Rows[len(tab.Rows)-1]
	for i, cfg := range tab.Columns[1:] {
		if v, err := strconv.ParseFloat(strings.Fields(last[i+1])[0], 64); err == nil {
			b.ReportMetric(v, "ksectors/"+cfg)
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	rep := runExperimentBench(b, "fig12")
	tab := rep.Tables[0]
	last := tab.Rows[len(tab.Rows)-1]
	for i, cfg := range tab.Columns[1:] {
		if v, err := strconv.ParseFloat(strings.Fields(last[i+1])[0], 64); err == nil {
			b.ReportMetric(v, "vmin/"+cfg)
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	rep := runExperimentBench(b, "fig13")
	tab := rep.Tables[0]
	last := tab.Rows[len(tab.Rows)-1]
	for i, cfg := range tab.Columns[1:] {
		if v, err := strconv.ParseFloat(strings.Fields(last[i+1])[0], 64); err == nil {
			b.ReportMetric(v, "vsec/"+cfg)
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	rep := runExperimentBench(b, "fig14")
	tab := rep.Tables[0]
	last := tab.Rows[len(tab.Rows)-1] // most guests
	for i, cfg := range tab.Columns[1:] {
		if v, err := strconv.ParseFloat(strings.Fields(last[i+1])[0], 64); err == nil {
			b.ReportMetric(v, "vsec/"+cfg)
		}
	}
}

func BenchmarkFig15(b *testing.B) {
	rep := runExperimentBench(b, "fig15")
	if len(rep.Notes) > 0 {
		f := strings.Fields(rep.Notes[0])
		// "mean |tracked - clean cache| = X MB over N samples"
		for i, tok := range f {
			if tok == "=" && i+1 < len(f) {
				if v, err := strconv.ParseFloat(f[i+1], 64); err == nil {
					b.ReportMetric(v, "MB-err")
				}
			}
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	rep := runExperimentBench(b, "tab1")
	reportCells(b, rep, 0, 3, "loc")
}

func BenchmarkTable2(b *testing.B) {
	rep := runExperimentBench(b, "tab2")
	reportCells(b, rep, 0, 1, "vsec")
}

func BenchmarkOverhead(b *testing.B) {
	rep := runExperimentBench(b, "overhead")
	for _, row := range rep.Tables[0].Rows {
		pct := strings.TrimSuffix(strings.TrimPrefix(row[3], "+"), "%")
		if v, err := strconv.ParseFloat(pct, 64); err == nil {
			b.ReportMetric(v, "pct/"+strings.ReplaceAll(row[0], " ", "_"))
		}
	}
}

func BenchmarkWindows(b *testing.B) {
	rep := runExperimentBench(b, "windows")
	reportCells(b, rep, 0, 1, "vsec_base")
}

func BenchmarkAblations(b *testing.B) {
	runExperimentBench(b, "ablation")
}
