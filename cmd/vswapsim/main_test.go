package main

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"

	"vswapsim/internal/cli"
	"vswapsim/internal/serve"
)

// Exit codes, as the command returns them.
const (
	exitOK         = cli.ExitOK
	exitFailures   = cli.ExitFailures
	exitUsage      = cli.ExitUsage
	exitIncomplete = cli.ExitIncomplete
)

// run drives the command line exactly as main does.
func run(args []string, stdout, stderr io.Writer) int { return cli.Main(args, stdout, stderr) }

func TestParseArgsTable(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
		check   func(t *testing.T, f cli.Flags)
	}{
		{"defaults", []string{"fig3"}, false, func(t *testing.T, f cli.Flags) {
			if f.Job.Parallel != runtime.GOMAXPROCS(0) {
				t.Fatalf("default -parallel = %d, want GOMAXPROCS (%d)", f.Job.Parallel, runtime.GOMAXPROCS(0))
			}
			if f.Job.Scale != 1.0 || f.Job.Seed != 42 || f.Job.Quick || f.JSON || f.Job.ID != "fig3" {
				t.Fatalf("unexpected defaults: %+v", f.Job)
			}
		}},
		{"parallel explicit", []string{"fig3", "-parallel", "4"}, false, func(t *testing.T, f cli.Flags) {
			if f.Job.Parallel != 4 || f.Job.ID != "fig3" {
				t.Fatalf("parsed %+v", f.Job)
			}
		}},
		{"serial", []string{"fig3", "-parallel", "1"}, false, func(t *testing.T, f cli.Flags) {
			if f.Job.Parallel != 1 {
				t.Fatalf("parsed %+v", f.Job)
			}
		}},
		{"parallel zero rejected", []string{"fig3", "-parallel", "0"}, true, nil},
		{"parallel negative rejected", []string{"fig3", "-parallel", "-2"}, true, nil},
		{"parallel non-numeric rejected", []string{"fig3", "-parallel", "lots"}, true, nil},
		{"scale zero rejected", []string{"fig3", "-scale", "0"}, true, nil},
		{"scale too large rejected", []string{"fig3", "-scale", "17"}, true, nil},
		{"unknown flag rejected", []string{"fig3", "-frobnicate"}, true, nil},
		{"all flags", []string{"fig11", "-seed", "7", "-scale", "0.5", "-quick", "-parallel", "2"}, false,
			func(t *testing.T, f cli.Flags) {
				want := serve.JobRequest{ID: "fig11", Seed: 7, Scale: 0.5, Quick: true, Parallel: 2}
				if f.Job != want {
					t.Fatalf("parsed %+v, want %+v", f.Job, want)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := cli.Parse("run", c.args)
			if c.wantErr {
				if err == nil {
					t.Fatalf("Parse(run, %v) succeeded with %+v, want error", c.args, got.Job)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(run, %v): %v", c.args, err)
			}
			if c.check != nil {
				c.check(t, got)
			}
		})
	}
}

func TestParseArgsFaults(t *testing.T) {
	f, err := cli.Parse("run", []string{"fig3", "-faults", "disk-read-err:0.01;disk-lat:0.05", "-auditevery", "512"})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Opts.Faults.String(); got != "disk-read-err:0.01;disk-lat:0.05:2ms" {
		t.Fatalf("parsed plan %q", got)
	}
	if f.Opts.AuditEvery != 512 {
		t.Fatalf("auditEvery = %d", f.Opts.AuditEvery)
	}

	if f, err := cli.Parse("run", []string{"fig3"}); err != nil || !f.Opts.Faults.Empty() {
		t.Fatalf("default faults: %+v, %v", f.Opts.Faults, err)
	}
	for _, bad := range [][]string{
		{"fig3", "-faults", "bogus:0.5"},
		{"fig3", "-faults", "disk-read-err:2"},
		{"fig3", "-auditevery", "-1"},
	} {
		if _, err := cli.Parse("run", bad); err == nil {
			t.Errorf("Parse(run, %v) succeeded, want error", bad)
		}
	}
}

// TestStrayArgumentRejected: an argument no command takes is a usage
// error (exit 2 plus the hint), never a silent stop that drops every
// later flag. One case per subcommand.
func TestStrayArgumentRejected(t *testing.T) {
	for _, args := range [][]string{
		{"list", "extra"},
		{"run", "tab1", "-quick", "-scale", "0.125", "stray", "-json"},
		{"run", "../../scenarios/fig3.yaml", "../../scenarios/fig9.yaml", "-quick", "-scale", "0.125"},
		{"report", "-only", "tab1", "stray", "-quick"},
		{"validate", "../../scenarios/fig3.yaml", "-quick"},
		{"bench", "-only", "tab1", "stray", "-iters", "1"},
		{"serve", "stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
		if stdout.Len() > 0 {
			t.Errorf("run(%v) printed output before rejecting:\n%s", args, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, "usage") {
			t.Errorf("run(%v) stderr lacks the usage hint: %q", args, msg)
		}
		if args[0] != "validate" && !strings.Contains(msg, "unexpected argument") {
			t.Errorf("run(%v) stderr does not name the stray argument: %q", args, msg)
		}
	}
}
