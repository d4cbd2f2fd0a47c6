// Package reportcmd_test tests `vswapsim report`, the whole-registry
// sweep, through the cli package that implements it. The tests keep this
// directory so their ids stay stable; the command itself is
// cmd/vswapsim.
package reportcmd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vswapsim/internal/cli"
	"vswapsim/internal/experiment"
	"vswapsim/internal/serve"
)

// report drives `vswapsim report args...` as the binary does.
func report(args []string, stdout, stderr io.Writer) int {
	return cli.Main(append([]string{"report"}, args...), stdout, stderr)
}

func TestParseArgsTable(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
		check   func(t *testing.T, f cli.Flags)
	}{
		{"defaults", nil, false, func(t *testing.T, f cli.Flags) {
			if f.Job.Parallel != runtime.GOMAXPROCS(0) {
				t.Fatalf("default -parallel = %d, want GOMAXPROCS (%d)", f.Job.Parallel, runtime.GOMAXPROCS(0))
			}
			if f.Job.Scale != 1.0 || f.Job.Seed != 42 || f.Job.Quick || f.Only != "" {
				t.Fatalf("unexpected defaults: %+v", f)
			}
		}},
		{"parallel explicit", []string{"-parallel", "8", "-quick"}, false, func(t *testing.T, f cli.Flags) {
			if f.Job.Parallel != 8 || !f.Job.Quick {
				t.Fatalf("parsed %+v", f.Job)
			}
		}},
		{"parallel zero rejected", []string{"-parallel", "0"}, true, nil},
		{"parallel negative rejected", []string{"-parallel", "-1"}, true, nil},
		{"parallel non-numeric rejected", []string{"-parallel", "many"}, true, nil},
		{"scale invalid rejected", []string{"-scale", "-0.5"}, true, nil},
		{"output flags", []string{"-o", "out.txt", "-csv", "csvdir", "-only", "fig5"}, false,
			func(t *testing.T, f cli.Flags) {
				if f.Out != "out.txt" || f.CSVDir != "csvdir" || f.Only != "fig5" {
					t.Fatalf("parsed %+v", f)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := cli.Parse("report", c.args)
			if c.wantErr {
				if err == nil {
					t.Fatalf("Parse(report, %v) succeeded with %+v, want error", c.args, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(report, %v): %v", c.args, err)
			}
			if c.check != nil {
				c.check(t, got)
			}
		})
	}
}

// TestSelectExperiments: -only picks registry entries in the caller's
// order, and an empty filter means the whole registry.
func TestSelectExperiments(t *testing.T) {
	ids := func(only string) ([]string, error) {
		f, err := cli.Parse("report", []string{"-only", only})
		var out []string
		for _, e := range f.Exps {
			out = append(out, e.ID)
		}
		return out, err
	}
	all, err := ids("")
	if err != nil || len(all) != len(experiment.Registry) {
		t.Fatalf("empty filter: %d experiments, err %v", len(all), err)
	}
	one, err := ids("fig9")
	if err != nil || len(one) != 1 || one[0] != "fig9" {
		t.Fatalf("fig9 filter: %v, err %v", one, err)
	}
	multi, err := ids("fig11, fig5")
	if err != nil || len(multi) != 2 || multi[0] != "fig11" || multi[1] != "fig5" {
		t.Fatalf("multi filter: %v, err %v", multi, err)
	}
	if _, err := ids("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := ids("fig5,nope"); err == nil {
		t.Fatal("unknown id in list accepted")
	}
	if _, err := ids("fig5,"); err == nil {
		t.Fatal("empty id in list accepted")
	}
}

// TestRunUsageErrors: every malformed flag value exits with the usage
// code and a one-line hint on stderr.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"bad faults spec", []string{"-faults", "bogus:0.5"}},
		{"negative auditevery", []string{"-auditevery", "-1"}},
		{"negative celltimeout", []string{"-celltimeout", "-1s"}},
		{"malformed maxevents", []string{"-maxevents", "-5"}},
		{"negative tracering", []string{"-tracering", "-1"}},
		{"bad scale", []string{"-scale", "17"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := report(c.args, &stdout, &stderr)
			if code != cli.ExitUsage {
				t.Fatalf("report(%v) = %d, want %d", c.args, code, cli.ExitUsage)
			}
			if msg := stderr.String(); !strings.Contains(msg, "usage") && !strings.Contains(msg, "Usage") {
				t.Fatalf("stderr has no usage hint:\n%s", msg)
			}
		})
	}
}

// TestRunUsageErrorsConsistent mirrors run's negative-path table:
// -parallel <= 0 and -auditevery < 0 exit 2 with the one-line usage hint,
// and so do the local-only outputs combined with -server.
func TestRunUsageErrorsConsistent(t *testing.T) {
	cases := [][]string{
		{"-parallel", "0"},
		{"-parallel", "-4"},
		{"-auditevery", "-1"},
		{"-server", "http://x", "-json", "-"},
		{"-server", "http://x", "-memprofile", "mem.out"},
		{"-server", "http://x", "-diagdir", "dir"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := report(args, &stdout, &stderr); code != cli.ExitUsage {
			t.Errorf("report(%v) = %d, want %d", args, code, cli.ExitUsage)
		}
		if msg := strings.ToLower(stderr.String()); !strings.Contains(msg, "usage") {
			t.Errorf("report(%v) stderr lacks the usage hint: %q", args, stderr.String())
		}
	}
}

// TestRunHardenedReportWritesDiagBundles: a tiny event budget kills every
// cell of a single-figure report run; the process exits non-zero, the
// JSON document (teed to a file by -o) carries the failure records,
// -diagdir receives one replayable bundle per failed cell, and the text
// report calls the failed cells out.
func TestRunHardenedReportWritesDiagBundles(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	diagDir := filepath.Join(dir, "diag")
	common := []string{"-only", "fig3", "-quick", "-scale", "0.125", "-seed", "7", "-maxevents", "1000"}
	var stdout, stderr bytes.Buffer
	args := append(append([]string{}, common...), "-json", "-o", jsonPath, "-diagdir", diagDir)
	if code := report(args, &stdout, &stderr); code != cli.ExitFailures {
		t.Fatalf("exit = %d, want %d; stderr:\n%s", code, cli.ExitFailures, stderr.String())
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc experiment.JSONDocument
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("JSON file invalid: %v", err)
	}
	if len(doc.Experiments) != 1 || len(doc.Experiments[0].Failures) == 0 {
		t.Fatal("no failure records in the JSON document")
	}
	bundles, err := filepath.Glob(filepath.Join(diagDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != len(doc.Experiments[0].Failures) {
		t.Fatalf("%d bundles for %d failures", len(bundles), len(doc.Experiments[0].Failures))
	}
	var b experiment.DiagBundle
	raw, err := os.ReadFile(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("bundle invalid: %v", err)
	}
	if !strings.Contains(b.Replay, "vswapsim run fig3") || !strings.Contains(b.Replay, "-maxevents 1000") {
		t.Fatalf("bundle replay command incomplete: %q", b.Replay)
	}
	// The text report renders too, with the failed cells called out.
	stdout.Reset()
	if code := report(common, &stdout, &stderr); code != cli.ExitFailures {
		t.Fatalf("text run exit = %d, want %d", code, cli.ExitFailures)
	}
	if out := stdout.String(); !strings.Contains(out, "FAILED") {
		t.Fatalf("text output does not flag failures:\n%s", out)
	}
}

// TestServerModeSweep: a -server sweep renders each selected experiment
// from daemon documents, and a repeat sweep is served from the cache.
func TestServerModeSweep(t *testing.T) {
	s, err := serve.New(serve.Config{CacheDir: t.TempDir(), Fingerprint: "test:report"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()

	args := []string{"-only", "tab1", "-quick", "-server", ts.URL}
	var cold, stderr bytes.Buffer
	if code := report(args, &cold, &stderr); code != cli.ExitOK {
		t.Fatalf("cold sweep = %d, stderr %s", code, stderr.String())
	}
	out := cold.String()
	if !strings.Contains(out, "served by "+ts.URL) {
		t.Fatalf("header lacks the daemon URL:\n%s", out)
	}
	if !strings.Contains(out, "Lines of code of VSwapper") {
		t.Fatalf("sweep output lacks the rendered table:\n%s", out)
	}
	if !strings.Contains(out, "0 of 1 from cache") {
		t.Fatalf("cold sweep should be all misses:\n%s", out)
	}

	var warm bytes.Buffer
	if code := report(args, &warm, &stderr); code != cli.ExitOK {
		t.Fatalf("warm sweep = %d", code)
	}
	if !strings.Contains(warm.String(), "1 of 1 from cache") {
		t.Fatalf("warm sweep not served from cache:\n%s", warm.String())
	}
}

// failWriter is a stdout whose every write fails.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, os.ErrClosed }

// TestFailedOutputWriteExits1: a requested output that cannot be written
// (a CSV table, the -o file, the JSON document) fails the command with
// exit 1 rather than a message and exit 0, for report and for run.
func TestFailedOutputWriteExits1(t *testing.T) {
	dir := t.TempDir()
	// The CSV table's path is taken by a directory, so the write fails.
	if err := os.MkdirAll(filepath.Join(dir, "csv", "tab1_0.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "csv")
	cases := []struct {
		name   string
		args   []string
		stdout io.Writer
	}{
		{"report csv", []string{"report", "-only", "tab1", "-quick", "-csv", csv}, io.Discard},
		{"run csv", []string{"run", "tab1", "-quick", "-csv", csv}, io.Discard},
		{"report -o is a directory", []string{"report", "-only", "tab1", "-quick", "-o", csv}, io.Discard},
		{"run json to a failing stdout", []string{"run", "tab1", "-quick", "-json"}, failWriter{}},
		{"report text to a failing stdout", []string{"report", "-only", "tab1", "-quick"}, failWriter{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := cli.Main(c.args, c.stdout, &stderr); code != cli.ExitFailures {
				t.Fatalf("%v = %d, want %d; stderr:\n%s", c.args, code, cli.ExitFailures, stderr.String())
			}
			if stderr.Len() == 0 {
				t.Fatal("the failed write was not reported on stderr")
			}
		})
	}
}
