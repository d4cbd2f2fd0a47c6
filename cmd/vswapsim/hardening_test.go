package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vswapsim/internal/experiment"
)

// TestRunUsageErrors: every malformed flag value exits with the usage
// code and a one-line hint on stderr, instead of a stack trace or a
// silent default.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"bad faults spec", []string{"run", "fig3", "-faults", "bogus:0.5"}},
		{"fault prob out of range", []string{"run", "fig3", "-faults", "disk-read-err:2"}},
		{"negative auditevery", []string{"run", "fig3", "-auditevery", "-1"}},
		{"negative celltimeout", []string{"run", "fig3", "-celltimeout", "-3s"}},
		{"malformed celltimeout", []string{"run", "fig3", "-celltimeout", "soon"}},
		{"malformed maxevents", []string{"run", "fig3", "-maxevents", "-5"}},
		{"negative tracering", []string{"run", "fig3", "-tracering", "-1"}},
		{"bad scale", []string{"run", "fig3", "-scale", "0"}},
		{"unknown flag", []string{"run", "fig3", "-frobnicate"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != exitUsage {
				t.Fatalf("run(%v) = %d, want %d", c.args, code, exitUsage)
			}
			msg := stderr.String()
			// flag's own parse errors print usage themselves; our validation
			// errors must point at it in a single line.
			if !strings.Contains(msg, "usage") && !strings.Contains(msg, "Usage") {
				t.Fatalf("stderr has no usage hint:\n%s", msg)
			}
		})
	}
}

// TestRunHardenedSweepFailsClosed: an absurdly small event budget kills
// every cell; the run still emits a valid JSON document whose failure
// records carry the watchdog kind, and the process exits non-zero.
func TestRunHardenedSweepFailsClosed(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"run", "fig3", "-quick", "-scale", "0.125",
		"-seed", "7", "-maxevents", "1000", "-json"}
	code := run(args, &stdout, &stderr)
	if code != exitFailures {
		t.Fatalf("exit = %d, want %d; stderr:\n%s", code, exitFailures, stderr.String())
	}
	var doc experiment.JSONDocument
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Incomplete {
		t.Fatal("deterministic kills must not mark the document incomplete")
	}
	if len(doc.Experiments) != 1 || len(doc.Experiments[0].Failures) == 0 {
		t.Fatalf("no failure records in the document")
	}
	for _, f := range doc.Experiments[0].Failures {
		if f.Kind != experiment.FailWatchdogEvents {
			t.Fatalf("failure %q has kind %q, want %q", f.Label, f.Kind, experiment.FailWatchdogEvents)
		}
		if f.Seed == 0 || f.BaseSeed != 7 {
			t.Fatalf("failure %q lacks replay identity: %+v", f.Label, f)
		}
	}
}

// TestRunSigintEmitsPartialReport: SIGINT mid-sweep cancels the in-flight
// cells, the process still prints a valid JSON document marked
// incomplete, and exits with the incomplete code. The full-scale fig14
// run takes many seconds, so a signal 300ms in is guaranteed to land
// mid-sweep.
func TestRunSigintEmitsPartialReport(t *testing.T) {
	if testing.Short() {
		t.Skip("sends a real SIGINT and waits out a multi-second sweep start")
	}
	var stdout, stderr bytes.Buffer
	var code int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		code = run([]string{"run", "fig14", "-seed", "3", "-json"}, &stdout, &stderr)
	}()
	time.Sleep(300 * time.Millisecond) // let signal.NotifyContext install and the sweep start
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("run did not drain within 60s of SIGINT")
	}
	if code != exitIncomplete {
		t.Fatalf("exit = %d, want %d; stderr:\n%s", code, exitIncomplete, stderr.String())
	}
	var doc experiment.JSONDocument
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("partial output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if !doc.Incomplete {
		t.Fatal("document not marked incomplete")
	}
	if len(doc.Experiments) != 1 {
		t.Fatalf("document has %d experiments, want 1", len(doc.Experiments))
	}
	canceled := 0
	for _, f := range doc.Experiments[0].Failures {
		if f.Kind == experiment.FailCanceled {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no canceled cells recorded in the partial report")
	}
}
