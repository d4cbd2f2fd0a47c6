package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The self-test runs the benchmark at a tiny scale: every metric that
// BENCHMARK.json names is printed with its unit, a correct run passes its
// own pins, and a tampered pin is counted as a failed cell.

const (
	tinyWorkload = "scaleup-alloc"
	tinyScale    = "0.01"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// benchmark starts its set-up child processes.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, time.Now()))
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs the benchmark with the tiny-scale settings plus args and
// returns its exit code, its stdout and the parsed result line, if any.
func runTiny(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	base := []string{"--workload", tinyWorkload, "--seed", "5", "--seconds", "0.01",
		"--scale", tinyScale, "--out", t.TempDir()}
	var stdout, stderr bytes.Buffer
	code := run(append(base, args...), &stdout, &stderr, time.Now())
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "{") {
		return code, stdout.String(), r // usage error or --write-pins: no result line
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), r
}

func writeTinyPins(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pins.json")
	if code, out, _ := runTiny(t, "--write-pins", path); code != 0 {
		t.Fatalf("write pins: exit %d\n%s", code, out)
	}
	return path
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	spec := loadSpec(t)
	pins := writeTinyPins(t)
	for _, tc := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		code, out, r := runTiny(t, "--pins", pins, "--trace", tc.trace)
		if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 3 {
			t.Fatalf("trace %s: exit %d, result %+v\n%s", tc.trace, code, r, out)
		}
		if len(r.Metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json names %d", tc.trace, len(r.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %q", tc.trace, m.Name, got, m.Unit)
			}
			if !strings.Contains(out, "metric "+m.Name+" ") {
				t.Errorf("trace %s: no human-readable line for %s", tc.trace, m.Name)
			}
		}
	}
}

func TestTamperedPinFails(t *testing.T) {
	path := writeTinyPins(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]pin
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	for k, p := range pins {
		p.Fingerprint = strings.Repeat("0", 64)
		pins[k] = p
	}
	data, err = json.Marshal(pins)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, r := runTiny(t, "--pins", path)
	if code != 1 || r.Correct || r.Failed == 0 {
		t.Fatalf("tampered pin: exit %d, result %+v; want exit 1 and failed cells\n%s", code, r, out)
	}
	if !strings.Contains(out, "pinned "+strings.Repeat("0", 64)) {
		t.Errorf("failure line does not name the pinned fingerprint:\n%s", out)
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", tinyWorkload, "--trace", "2"},
		{"--workload", tinyWorkload, "--seconds", "0"},
		{"--workload", tinyWorkload, "--seed", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, time.Now()); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.chansend1", "vswapsim/internal/sim.(*Proc).dispatch"}, bucketSched},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "vswapsim/internal/hostmm.(*Manager).fault"}, bucketGC},
		{[]string{"runtime.mapaccess2", "vswapsim/internal/hostmm.(*Manager).fault"}, "hostmm"},
		{[]string{"sort.insertionSort", "vswapsim/internal/guest.(*OS).shrinkLists"}, "guest"},
		{[]string{"encoding/json.Marshal", "main.run"}, bucketOther},
	} {
		if got := bucketOf(tc.frames); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

var sink uint64

func TestProfileDecodes(t *testing.T) {
	var p profiler
	p.start()
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := uint64(0); i < 1e5; i++ {
			sink += i * i
		}
	}
	p.stop()
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.samples == 0 || p.total <= 0 {
		t.Fatalf("decoded %d samples, %v ns from a 300 ms busy loop", p.samples, p.total)
	}
	if s := p.share(bucketOther); s < 0.5 {
		t.Errorf("busy loop in package main attributed %.2f to other, want most of it", s)
	}
}
