package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vswapsim/internal/serve"
)

// TestCLIValidationConsistency pins flag hygiene: both target kinds of
// the run subcommand (registry id and scenario file) reject -parallel <= 0
// and -auditevery < 0 the same way — exit 2 plus the one-line usage hint.
func TestCLIValidationConsistency(t *testing.T) {
	scenarioPath := filepath.Join("..", "..", "scenarios", "fig3.yaml")
	bad := [][]string{
		{"-parallel", "0"},
		{"-parallel", "-4"},
		{"-auditevery", "-1"},
	}
	for _, flags := range bad {
		for _, entry := range [][]string{
			append([]string{"run", "fig3"}, flags...),
			append([]string{"run", scenarioPath}, flags...),
		} {
			var stdout, stderr bytes.Buffer
			if code := run(entry, &stdout, &stderr); code != exitUsage {
				t.Errorf("run(%v) = %d, want %d", entry, code, exitUsage)
			}
			msg := strings.ToLower(stderr.String())
			if !strings.Contains(msg, "usage") {
				t.Errorf("run(%v) stderr lacks the usage hint: %q", entry, stderr.String())
			}
			if !strings.Contains(msg, "invalid") {
				t.Errorf("run(%v) stderr lacks the offending flag: %q", entry, stderr.String())
			}
		}
	}
}

// startServeBackend runs an in-process daemon core for -server tests.
func startServeBackend(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{CacheDir: t.TempDir(), Fingerprint: "test:climode"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return ts.URL
}

// TestServerModeRegistry: `vswapsim run <id> -server URL` round-trips a
// registry experiment through the daemon; the second (cached) run prints
// byte-identical -json output.
func TestServerModeRegistry(t *testing.T) {
	url := startServeBackend(t)
	args := []string{"run", "tab1", "-quick", "-server", url}

	var text, stderr bytes.Buffer
	if code := run(args, &text, &stderr); code != exitOK {
		t.Fatalf("server-mode run = %d, stderr %s", code, stderr.String())
	}
	out := text.String()
	if !strings.Contains(out, "(served by "+url) || !strings.Contains(out, "cache miss") {
		t.Fatalf("cold run output lacks the serve trailer:\n%s", out)
	}
	if !strings.Contains(out, "Lines of code of VSwapper") {
		t.Fatalf("server-mode text output lacks the rendered table:\n%s", out)
	}

	jsonArgs := append(args, "-json")
	var cold, warm bytes.Buffer
	if code := run(jsonArgs, &cold, &stderr); code != exitOK {
		t.Fatalf("cold -json run = %d", code)
	}
	if code := run(jsonArgs, &warm, &stderr); code != exitOK {
		t.Fatalf("warm -json run = %d", code)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatal("warm -server -json output differs from cold")
	}
	var hit bytes.Buffer
	if code := run(args, &hit, &stderr); code != exitOK {
		t.Fatalf("warm text run = %d", code)
	}
	if !strings.Contains(hit.String(), "cache hit") {
		t.Fatalf("warm run not served from cache:\n%s", hit.String())
	}
}

// TestServerModeScenario: the run subcommand ships scenario YAML to the
// daemon inline and renders the returned document.
func TestServerModeScenario(t *testing.T) {
	url := startServeBackend(t)
	path := filepath.Join(t.TempDir(), "tiny.yaml")
	yaml := `scenario: tinysrv
title: "tiny server-mode scenario"
mode: single
fleet:
  memory_mb: 128
  actual_mb: 64
schemes:
  - name: baseline
workload:
  kind: seqread
  file_mb: 8
table:
  title: "runtime [sec]"
`
	if err := os.WriteFile(path, []byte(yaml), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"run", path, "-server", url, "-json"}
	var cold, warm, stderr bytes.Buffer
	if code := run(args, &cold, &stderr); code != exitOK {
		t.Fatalf("cold scenario server run = %d, stderr %s", code, stderr.String())
	}
	if code := run(args, &warm, &stderr); code != exitOK {
		t.Fatalf("warm scenario server run = %d", code)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatal("warm scenario -server output differs from cold")
	}
	if !strings.Contains(cold.String(), `"tinysrv"`) {
		t.Fatalf("document lacks the scenario id:\n%s", cold.String())
	}
}

// TestServerModeRejectsDiagdir: diag bundles are written daemon-side;
// combining -server with -diagdir is a usage error, not a silent no-op.
func TestServerModeRejectsDiagdir(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"run", "tab1", "-server", "http://127.0.0.1:1", "-diagdir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != exitUsage {
		t.Fatalf("run = %d, want %d", code, exitUsage)
	}
	if !strings.Contains(stderr.String(), "-diagdir") {
		t.Fatalf("stderr does not explain the conflict: %s", stderr.String())
	}
}

// TestServerModeScenarioMatchesLocal: a scenario's own faults: and
// audit_every: reach the served document exactly as they reach a local
// one, because both sides compile the job the same way. The documents
// differ only in "parallel", which job documents omit by design.
func TestServerModeScenarioMatchesLocal(t *testing.T) {
	url := startServeBackend(t)
	path := filepath.Join(t.TempDir(), "faulty.yaml")
	yaml := `scenario: faulty
title: "scenario-level faults, local vs served"
mode: single
faults: "disk-lat:0.05:2ms"
audit_every: 4096
fleet:
  memory_mb: 128
  actual_mb: 64
schemes:
  - name: baseline
workload:
  kind: seqread
  file_mb: 8
table:
  title: "runtime [sec]"
`
	if err := os.WriteFile(path, []byte(yaml), 0o644); err != nil {
		t.Fatal(err)
	}
	var local, served, stderr bytes.Buffer
	if code := run([]string{"run", path, "-json", "-parallel", "1"}, &local, &stderr); code != exitOK {
		t.Fatalf("local run = %d, stderr %s", code, stderr.String())
	}
	if code := run([]string{"run", path, "-json", "-server", url}, &served, &stderr); code != exitOK {
		t.Fatalf("served run = %d, stderr %s", code, stderr.String())
	}
	want := strings.Replace(local.String(), "  \"parallel\": 1,\n", "", 1)
	if want == local.String() {
		t.Fatalf("local document has no parallel line:\n%s", local.String())
	}
	if !strings.Contains(want, `"faults": "disk-lat:0.05:2ms"`) {
		t.Fatalf("local document lacks the scenario's faults:\n%s", want)
	}
	if served.String() != want {
		t.Fatalf("served document differs from the local one:\n--- served ---\n%s\n--- local ---\n%s", served.String(), want)
	}
}
