package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vswapsim/internal/experiment"
	"vswapsim/internal/metrics"
)

// pinnedCounters are the per-cell counters (summed over the cell's run
// records) whose values are pinned next to the report fingerprint. They
// depend only on the simulated behaviour, so a change that only makes the
// simulator faster leaves every one of them identical.
var pinnedCounters = []string{
	metrics.HostMajorFaults, metrics.HostMinorFaults,
	metrics.HostPagesScanned, metrics.HostPagesReclaimed,
	metrics.HostSwapIns, metrics.HostSwapOuts,
	metrics.HostPrefetchHits, metrics.HostSwapPrefetched, metrics.HostFilePrefetched,
	metrics.SwapReadSectors, metrics.SwapWriteSectors,
	metrics.GuestMajorFaults,
	metrics.DiskOps, metrics.DiskReadSectors, metrics.DiskWriteSectors,
	metrics.MapperEstablish, metrics.PreventerRemaps,
	metrics.SilentSwapWrites, metrics.StaleSwapReads, metrics.FalseSwapReads,
	metrics.BalloonInflatePages,
	metrics.ClusterMigrations, metrics.ClusterKills,
}

// runsCounter is the pinned count of run records (simulated machines) a
// cell produced; it sits in the same vector as the counters.
const runsCounter = "runs"

// pin is the expected output of one cell.
type pin struct {
	Fingerprint string           `json:"fingerprint"`
	Counters    map[string]int64 `json:"counters"`
}

//go:embed pins.json
var embeddedPins []byte

func pinKey(entry string, scale float64, seed uint64) string {
	return fmt.Sprintf("%s scale=%g seed=%d", entry, scale, seed)
}

func loadPins(path string) (map[string]pin, error) {
	data := embeddedPins
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("load pins: %w", err)
		}
	}
	pins := map[string]pin{}
	if err := json.Unmarshal(data, &pins); err != nil {
		return nil, fmt.Errorf("load pins %s: %w", path, err)
	}
	return pins, nil
}

// bench is one invocation's state.
type bench struct {
	cfg   config
	start time.Time
	exp   experiment.Experiment
	pins  map[string]pin
	// first is the run's first correct cell; later repetitions must match
	// it exactly.
	first *cellOut
	tr    tracer
	// cellTraces lists every cell for the traced run's span file.
	cellTraces []cellTrace
}

func newBench(c config, start time.Time) (*bench, error) {
	exp, err := experiment.ByID(c.workload.entry)
	if err != nil {
		return nil, err
	}
	pins, err := loadPins(c.pinsPath)
	if err != nil {
		return nil, err
	}
	return &bench{cfg: c, start: start, exp: exp, pins: pins, tr: tracer{on: c.trace, t0: start}}, nil
}

// stage names, in cell order; each is one public call the cell makes.
const (
	stRunAll    = "experiment.RunAll"
	stBuildJSON = "experiment.BuildJSON"
	stBuildDoc  = "experiment.BuildJSONDocument"
	stMarshal   = "json.Marshal"
	stRender    = "experiment.JSONReport.Render"
	stFinger    = "experiment.Report.Fingerprint"
)

// cellOut is one cell's measurement and output digest.
type cellOut struct {
	run     int
	traced  bool
	wall    float64 // host seconds
	cpu     float64 // process user+sys seconds
	allocMB float64
	mallocs float64
	gcs     float64
	gcPause float64 // ms
	stages  map[string]float64
	docKB   float64

	fingerprint string
	docSHA      string
	counters    map[string]int64
	fail        string
}

// cellTrace is a cell as written to the span file.
type cellTrace struct {
	Run     int     `json:"run"`
	Traced  bool    `json:"traced"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	Fail    string  `json:"fail,omitempty"`
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runCell runs the registry entry once, times it, and checks its output.
// parent is the span the cell's span hangs under.
func (b *bench) runCell(run, parent int, traced bool) *cellOut {
	c := &cellOut{run: run, traced: traced}
	o := b.options()
	experiment.ResetCaches()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	b.tr.run = run
	root := b.tr.begin("cell", parent)
	c.stages = map[string]float64{}
	stage := func(name string, fn func()) {
		id := b.tr.begin(name, root)
		s := time.Now()
		fn()
		c.stages[name] = time.Since(s).Seconds()
		b.tr.end(id)
	}
	var (
		res  experiment.RunResult
		rep  *experiment.JSONReport
		doc  *experiment.JSONDocument
		data []byte
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.fail = fmt.Sprintf("panic: %v", r)
			}
		}()
		stage(stRunAll, func() { res = experiment.RunAll([]experiment.Experiment{b.exp}, o, nil)[0] })
		stage(stBuildJSON, func() { rep = experiment.BuildJSON(res.Report, res.Runs, res.Failures) })
		stage(stBuildDoc, func() {
			doc = experiment.BuildJSONDocument(o, []*experiment.JSONReport{rep})
			doc.Parallel = 0 // job documents omit parallelism, as RunDocument does
		})
		stage(stMarshal, func() {
			var err error
			if data, err = json.Marshal(doc); err != nil {
				panic(err)
			}
		})
		stage(stRender, func() { _ = rep.Render() })
		stage(stFinger, func() { c.fingerprint = res.Report.Fingerprint() })
	}()
	b.tr.end(root)
	c.wall = time.Since(t0).Seconds()
	c.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	c.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	c.mallocs = float64(m1.Mallocs - m0.Mallocs)
	c.gcs = float64(m1.NumGC - m0.NumGC)
	c.gcPause = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	if c.fail == "" {
		sum := sha256.Sum256(data)
		c.docSHA = hex.EncodeToString(sum[:])
		c.docKB = float64(len(data)) / 1024
		c.counters = countersOf(res)
		c.fail = b.check(c, res, doc)
	}
	b.cellTraces = append(b.cellTraces, cellTrace{
		Run: run, Traced: traced, WallS: c.wall, CPUS: c.cpu, AllocMB: c.allocMB, Fail: c.fail,
	})
	return c
}

// countersOf sums the pinned counters over a cell's run records.
func countersOf(res experiment.RunResult) map[string]int64 {
	out := map[string]int64{runsCounter: int64(len(res.Runs))}
	for _, name := range pinnedCounters {
		out[name] = 0
	}
	for _, r := range res.Runs {
		if r.Report == nil {
			continue
		}
		for _, name := range pinnedCounters {
			out[name] += r.Report.Counters[name]
		}
	}
	return out
}

// check returns why a finished cell is wrong, or "" when it is right: it
// must have no failure records, be complete, match its pin (if one
// exists) and match the run's first correct repetition.
func (b *bench) check(c *cellOut, res experiment.RunResult, doc *experiment.JSONDocument) string {
	if n := len(res.Failures); n > 0 {
		f := res.Failures[0]
		return fmt.Sprintf("%d failure record(s), first %s %s: %s", n, f.Label, f.Kind, f.Message)
	}
	if doc.Incomplete {
		return "document marked incomplete"
	}
	if p, ok := b.pins[pinKey(b.cfg.workload.entry, b.cfg.scale, b.cfg.seed)]; ok {
		if p.Fingerprint != c.fingerprint {
			return fmt.Sprintf("fingerprint %s, pinned %s", c.fingerprint, p.Fingerprint)
		}
		if d := diffCounters(p.Counters, c.counters); d != "" {
			return "counters differ from pin: " + d
		}
	}
	f := b.first
	if f == nil {
		b.first = c
		return ""
	}
	if f.fingerprint != c.fingerprint || f.docSHA != c.docSHA {
		return fmt.Sprintf("repetition differs from the first: fingerprint %s vs %s, document %s vs %s",
			c.fingerprint, f.fingerprint, c.docSHA, f.docSHA)
	}
	if d := diffCounters(f.counters, c.counters); d != "" {
		return "repetition counters differ: " + d
	}
	return ""
}

// diffCounters describes how got differs from want ("" when equal).
func diffCounters(want, got map[string]int64) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var names []string
	for k := range keys {
		if want[k] != got[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	out := ""
	for _, k := range names {
		out += fmt.Sprintf(" %s=%d (want %d)", k, got[k], want[k])
	}
	return out
}

// logCell prints one line per cell.
func logCell(w io.Writer, label string, c *cellOut) {
	status := "ok"
	if c.fail != "" {
		status = "FAIL " + c.fail
	}
	fmt.Fprintf(w, "# %s run=%d traced=%t wall_s=%.4f cpu_s=%.4f alloc_mb=%.2f %s\n",
		label, c.run, c.traced, c.wall, c.cpu, c.allocMB, status)
}

// measure runs the warm-up cell and the timed loop and returns the
// metrics of the run's mode.
func (b *bench) measure(w io.Writer) result {
	fmt.Fprintln(w, "#", b.envLine())
	setupSpan := b.tr.begin("setup", -1)
	warm := b.runCell(0, setupSpan, false)
	b.tr.end(setupSpan)
	logCell(w, "warmup", warm)
	fmt.Fprintf(w, "# setup of this process: %.4f s\n", time.Since(b.start).Seconds())

	// The untraced loop stops at the first cell boundary past the deadline,
	// after at least one timed cell. The traced loop alternates untraced
	// and traced cells, so tracing overhead is measured under the same
	// host conditions; it stops only after a traced cell.
	minCells, block := 1, 1
	if b.cfg.trace {
		minCells, block = 2, 2
	}
	var prof profiler
	var cells []*cellOut
	var calibs []float64
	loopStart := time.Now()
	for i := 0; ; i++ {
		calibs = append(calibs, calibrate())
		fmt.Fprintf(w, "# calibration %.2f ms\n", calibs[i]*1e3)
		if i >= minCells && i%block == 0 && time.Since(loopStart).Seconds() >= b.cfg.seconds {
			break
		}
		traced := b.cfg.trace && i%2 == 1
		b.tr.on = traced
		if traced {
			prof.start()
		}
		c := b.runCell(i+1, -1, traced)
		if traced {
			prof.stop()
		}
		logCell(w, "cell", c)
		cells = append(cells, c)
	}
	b.tr.on = b.cfg.trace

	all := append([]*cellOut{warm}, cells...)
	r := result{Attempted: len(all)}
	for _, c := range all {
		if c.fail != "" {
			r.Failed++
		}
	}
	untraced := filterCells(cells, false)
	if !b.cfg.trace {
		setups, setupCalibs, failed := b.timeSetups(w)
		r.Attempted += len(setups) + failed
		r.Failed += failed
		b.endToEnd(&r, untraced, calibs, setups, setupCalibs)
		return r
	}
	b.perLayer(&r, untraced, filterCells(cells, true), &prof)
	r.add("host.calib_ms", "ms", median(calibs)*1e3)
	return r
}

func filterCells(cells []*cellOut, traced bool) []*cellOut {
	var out []*cellOut
	for _, c := range cells {
		if c.traced == traced {
			out = append(out, c)
		}
	}
	return out
}

// medianOf is the median of a per-cell quantity over cells.
func medianOf(cells []*cellOut, f func(*cellOut) float64) float64 {
	xs := make([]float64, len(cells))
	for i, c := range cells {
		xs[i] = f(c)
	}
	return median(xs)
}

// setupReps is how many fresh processes timeSetups times.
const setupReps = 5

// childEnv marks a set-up child process (the self-test's binary needs to
// tell a child from a test run).
const childEnv = "PERFBENCH_SETUP_CHILD"

// timeSetups runs setupReps fresh benchmark processes that only set up —
// runtime and package initialisation, inputs, pins and the checked
// warm-up cell — and returns their wall times from start to exit, the
// calibration times taken around them, and how many of them failed. Fresh
// processes are needed because work moved into package-level state is
// paid once per process, which a second set-up in this process would hide.
func (b *bench) timeSetups(w io.Writer) (secs, calibs []float64, failed int) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(w, "# setup child: FAIL", err)
		return nil, nil, setupReps
	}
	args := []string{"--setup-only", "--workload", b.cfg.workload.name,
		"--seed", strconv.FormatUint(b.cfg.seed, 10), "--scale", strconv.FormatFloat(b.cfg.scale, 'g', -1, 64)}
	if b.cfg.pinsPath != "" {
		args = append(args, "--pins", b.cfg.pinsPath)
	}
	for i := 0; i < setupReps; i++ {
		calibs = append(calibs, calibrate())
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stdout, cmd.Stderr = &out, &out
		t := time.Now()
		err := cmd.Run()
		d := time.Since(t).Seconds()
		if err != nil {
			failed++
			fmt.Fprintf(w, "# setup child %d: FAIL %v: %s\n", i, err, strings.TrimSpace(out.String()))
			continue
		}
		fmt.Fprintf(w, "# setup child %d: %.4f s\n", i, d)
		secs = append(secs, d)
	}
	return secs, append(calibs, calibrate()), failed
}

// endToEnd fills the end-to-end metrics. The times are medians over the
// run, scaled to the reference host speed by the calibration times taken
// in the same stretch of the run (see calib.go); the raw medians are
// printed as comment lines.
func (b *bench) endToEnd(r *result, cells []*cellOut, calibs, setups, setupCalibs []float64) {
	var walls []float64
	for _, c := range cells {
		walls = append(walls, c.wall)
	}
	speed := hostSpeed(calibs)
	wall := median(walls)
	cpu := medianOf(cells, func(c *cellOut) float64 { return c.cpu })
	setup := median(setups)
	r.add("wall_s", "s", wall*speed)
	r.add("cpu_s", "s", cpu*speed)
	r.add("alloc_mb", "MiB", medianOf(cells, func(c *cellOut) float64 { return c.allocMB }))
	r.add("setup_s", "s", setup*hostSpeed(setupCalibs))
	note := fmt.Sprintf("wall_s samples=%d", len(walls))
	if p, v, ok := tailPercentile(walls); ok {
		note += fmt.Sprintf(" p%g=%.4f s (raw)", p, v)
	} else {
		note += " (too few samples for a tail percentile)"
	}
	r.notes = append(r.notes, note,
		fmt.Sprintf("raw medians: wall_s=%.4f cpu_s=%.4f setup_s=%.4f", wall, cpu, setup),
		fmt.Sprintf("calibration: loop median %.2f ms over %d, set-up median %.2f ms over %d, reference %.2f ms",
			median(calibs)*1e3, len(calibs), median(setupCalibs)*1e3, len(setupCalibs), calibRefS*1e3),
		fmt.Sprintf("fail_frac=%g (%d of %d cells failed)", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted))
}

// writePins runs the input once, unchecked against any pin, and merges the
// cell's fingerprint and counter vector into the pins file.
func (b *bench) writePins(w, stderr io.Writer) int {
	path := b.cfg.writePins
	pins := map[string]pin{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &pins); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b.pins = nil
	c := b.runCell(0, -1, false)
	logCell(w, "pin", c)
	if c.fail != "" {
		return 1
	}
	pins[pinKey(b.cfg.workload.entry, b.cfg.scale, b.cfg.seed)] = pin{Fingerprint: c.fingerprint, Counters: c.counters}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return 0
}
