// Command perfbench is the repository's host-cost benchmark: it measures
// how much host time and memory a correct simulator run costs, end to end
// and layer by layer, on three registry entries.
//
// The load is a closed loop with one client: one process runs cells back
// to back, where a cell is one registry entry driven through the public
// job path (experiment.RunAll, BuildJSON, BuildJSONDocument, json.Marshal,
// JSONReport.Render, Report.Fingerprint) at Scale 0.125, Quick, Parallel 1
// and GOMAXPROCS 2. Every cell's output is checked against pinned
// fingerprints and counter vectors (seeds 42 and 7) and against the run's
// first repetition of the same input. The end-to-end times are scaled to
// a reference host speed measured by a fixed calibration kernel that runs
// next to the cells (calib.go), because the shared hosts the benchmark
// runs on change speed from minute to minute.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload fleet-handoff --seed 42 --seconds 35 --trace 0
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vswapsim/internal/experiment"
)

// gomaxprocs is fixed so numbers compare across machines: two is what a
// command-line user gets on the 2-CPU hosts the baselines were taken on.
const gomaxprocs = 2

// workload is one benchmark input: a registry entry plus the guest and
// host sizes (nominal paper MB, scaled like the entry scales them) that
// the layer probes copy. README.md gives why each was chosen.
type workload struct {
	name, entry     string
	guestMB, hostMB int
}

var workloads = []workload{
	// 100 small guests on one host: goroutine handoffs in the sim event loop.
	{name: "fleet-handoff", entry: "fleetN", guestMB: 128, hostMB: 8 * 1024},
	// 20 hosts on one sim.Env: host faults, reclaim scans and swap-ins.
	{name: "cluster-pagepath", entry: "clusterN", guestMB: 256, hostMB: 1024},
	// Phased MapReduce scale-up with ballooning: allocation, GC, swap-out.
	{name: "scaleup-alloc", entry: "fig14", guestMB: 2 * 1024, hostMB: 8 * 1024},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// config is the parsed command line.
type config struct {
	workload  workload
	seed      uint64
	seconds   float64
	trace     bool
	scale     float64
	pinsPath  string
	writePins string
	setupOnly bool
	outDir    string
	commit    string
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var wl string
	var trace int
	fs.StringVar(&wl, "workload", "", "workload name (fleet-handoff, cluster-pagepath, scaleup-alloc)")
	fs.Uint64Var(&c.seed, "seed", 42, "input seed; every cell runs at it")
	fs.Float64Var(&c.seconds, "seconds", 10, "how long the timed loop runs")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.Float64Var(&c.scale, "scale", 0.125, "experiment scale (the self-test uses a tiny one)")
	fs.StringVar(&c.pinsPath, "pins", "", "pinned-results file (default: the embedded pins.json)")
	fs.StringVar(&c.writePins, "write-pins", "", "run each input once and write its pins to this file instead of timing")
	fs.BoolVar(&c.setupOnly, "setup-only", false, "only set up (inputs, pins, warm-up cell) and exit; setup_s times such processes")
	fs.StringVar(&c.outDir, "out", ".bench_build", "directory for the traced run's span file")
	fs.StringVar(&c.commit, "commit", "unknown", "source commit, recorded in the output")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	w, err := findWorkload(wl)
	if err != nil {
		return c, err
	}
	c.workload = w
	switch {
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("invalid --trace %d: must be 0 or 1", trace)
	case c.seed == 0:
		return c, errors.New("invalid --seed 0: the program treats 0 as the default seed")
	case c.seconds <= 0 || math.IsNaN(c.seconds) || c.seconds > 600:
		return c, fmt.Errorf("invalid --seconds %v: must be in (0, 600]", c.seconds)
	case c.scale <= 0 || c.scale > 1:
		return c, fmt.Errorf("invalid --scale %v: must be in (0, 1]", c.scale)
	}
	c.trace = trace == 1
	return c, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, time.Now()))
}

// run executes one benchmark invocation and returns the exit code: 0 on a
// correct run, 1 when any cell failed its checks, 2 on a usage or set-up
// error (no result line is printed then).
func run(args []string, stdout, stderr io.Writer, start time.Time) int {
	runtime.GOMAXPROCS(gomaxprocs)
	c, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b, err := newBench(c, start)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	if c.writePins != "" {
		return b.writePins(out, stderr)
	}
	if c.setupOnly {
		if warm := b.runCell(0, -1, false); warm.fail != "" {
			logCell(out, "warmup", warm)
			return 1
		}
		return 0
	}
	res := b.measure(out)
	if c.trace {
		if err := b.writeSpans(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	printResult(out, res)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// order is the print order of Metrics for the human-readable lines.
	order []string
	// notes are extra human-readable lines printed after the metrics.
	notes []string
}

func (r *result) add(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// printResult writes one "metric <name> <value> <unit>" line per metric,
// then the notes, then the JSON result line.
func printResult(w io.Writer, r result) {
	r.Correct = r.Failed == 0
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	data, err := json.Marshal(r)
	if err != nil {
		panic("perfbench: result not serializable: " + err.Error())
	}
	fmt.Fprintln(w, string(data))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest of the usual reporting percentiles
// that has at least ten samples beyond it, and its value; ok is false when
// the run has too few samples for any.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	for _, q := range []float64{99.9, 99, 95, 90, 75, 50} {
		if n*(1-q/100) >= 10 {
			i := int(math.Ceil(q/100*n)) - 1
			return q, s[i], true
		}
	}
	return 0, 0, false
}

// cpuModel reads the CPU model name, for the environment line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// envLine records what the numbers were taken under.
func (b *bench) envLine() string {
	return fmt.Sprintf("env go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s workload=%s entry=%s seed=%d scale=%g quick=true parallel=1 seconds=%g trace=%t",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), b.cfg.commit,
		b.cfg.workload.name, b.cfg.workload.entry, b.cfg.seed, b.cfg.scale,
		b.cfg.seconds, b.cfg.trace)
}

// writeSpans writes the traced run's spans, cells and environment.
func (b *bench) writeSpans() error {
	if err := os.MkdirAll(b.cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(b.cfg.outDir, fmt.Sprintf("perfbench-%s-seed%d.spans.json", b.cfg.workload.name, b.cfg.seed))
	doc := struct {
		Env   string      `json:"env"`
		Spans []span      `json:"spans"`
		Cells []cellTrace `json:"cells"`
	}{b.envLine(), b.tr.spans, b.cellTraces}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// options returns the experiment options of one cell.
func (b *bench) options() experiment.Options {
	return experiment.Options{Seed: b.cfg.seed, Scale: b.cfg.scale, Quick: true, Parallel: 1}
}
