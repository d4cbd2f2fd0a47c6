package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"vswapsim/internal/cli"
)

// registeredFlags returns the name of every flag cmd registers.
func registeredFlags(cmd string) []string {
	var names []string
	cli.NewFlagSet(cmd, &cli.Flags{}).VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}

// localCommands are the subcommands tested here; serve's drift tests sit
// with its other tests in cmd/vswapsimd.
func localCommands() []string {
	var cmds []string
	for _, c := range cli.Commands() {
		if c != "serve" {
			cmds = append(cmds, c)
		}
	}
	return cmds
}

// TestUsageMentionsEveryFlag pins -h output against flag-registration
// drift: every flag a subcommand registers must appear in its rendered
// usage, and the top-level usage must list every command form.
func TestUsageMentionsEveryFlag(t *testing.T) {
	for _, cmd := range localCommands() {
		var buf bytes.Buffer
		fs := cli.NewFlagSet(cmd, &cli.Flags{})
		fs.SetOutput(&buf)
		fs.Usage()
		usage := buf.String()
		if !strings.Contains(usage, "vswapsim "+cmd) {
			t.Errorf("%s usage does not show its command form:\n%s", cmd, usage)
		}
		for _, name := range registeredFlags(cmd) {
			if !strings.Contains(usage, "-"+name) {
				t.Errorf("%s usage does not mention registered flag -%s", cmd, name)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != exitUsage {
		t.Fatalf("vswapsim -h = %d, want %d", code, exitUsage)
	}
	for _, form := range []string{
		"vswapsim list",
		"vswapsim run <id|scenario.yaml>",
		"vswapsim report [-only ids] [-csv dir]",
		"vswapsim validate <scenario.yaml>",
		"vswapsim bench [-iters N] [-only ids]",
		"vswapsim serve",
	} {
		if !strings.Contains(stderr.String(), form) {
			t.Errorf("usage does not list command form %q:\n%s", form, stderr.String())
		}
	}
}

// TestREADMEDocumentsEveryFlag keeps the README's flag tables honest: a
// flag added to a subcommand without a README row fails here.
func TestREADMEDocumentsEveryFlag(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, cmd := range localCommands() {
		for _, name := range registeredFlags(cmd) {
			if !regexp.MustCompile("`-" + name + "[ `]").MatchString(readme) {
				t.Errorf("README.md does not document %s flag -%s", cmd, name)
			}
		}
	}
	if !strings.Contains(readme, "vswapsim run scenarios/") {
		t.Error("README.md quickstart does not lead with a scenario run")
	}
}

// TestScenarioCLIEquivalence is the end-to-end half of the equivalence
// guarantee: `vswapsim run scenarios/fig3.yaml -json` must write the very
// bytes `vswapsim run fig3 -json` writes, through the real CLI path
// (document header included — same -parallel, so headers agree too).
func TestScenarioCLIEquivalence(t *testing.T) {
	common := []string{"-json", "-quick", "-scale", "0.125", "-seed", "42", "-parallel", "1"}
	var yamlOut, goOut, errBuf bytes.Buffer

	args := append([]string{"run", filepath.Join("..", "..", "scenarios", "fig3.yaml")}, common...)
	if code := run(args, &yamlOut, &errBuf); code != exitOK {
		t.Fatalf("run %v exited %d: %s", args, code, errBuf.String())
	}
	args = append([]string{"run", "fig3"}, common...)
	if code := run(args, &goOut, &errBuf); code != exitOK {
		t.Fatalf("run %v exited %d: %s", args, code, errBuf.String())
	}
	if !bytes.Equal(yamlOut.Bytes(), goOut.Bytes()) {
		t.Fatalf("scenario JSON (%d bytes) differs from hand-coded fig3 JSON (%d bytes)",
			yamlOut.Len(), goOut.Len())
	}
}

func TestValidateCmdExitCodes(t *testing.T) {
	good, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(good) == 0 {
		t.Fatalf("no scenarios found: %v", err)
	}
	var out, errBuf bytes.Buffer
	if code := run(append([]string{"validate"}, good...), &out, &errBuf); code != exitOK {
		t.Fatalf("validate %v exited %d: %s", good, code, errBuf.String())
	}
	for _, p := range good {
		if !strings.Contains(out.String(), "ok "+p) {
			t.Errorf("validate output missing ok line for %s:\n%s", p, out.String())
		}
	}

	bad := filepath.Join(t.TempDir(), "bad.yaml")
	badDoc := `scenario: x
title: t
mode: single
bogus: 1
fleet:
  memory_mb: 512
  actual_mb: 100
schemes: [baseline]
workload:
  kind: seqread
  file_mb: 200
table:
  title: t
`
	if err := os.WriteFile(bad, []byte(badDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"validate", good[0], bad}, &out, &errBuf); code != exitFailures {
		t.Fatalf("validate with one bad file exited %d, want %d", code, exitFailures)
	}
	if !strings.Contains(errBuf.String(), "INVALID "+bad) ||
		!strings.Contains(errBuf.String(), "bogus") {
		t.Errorf("validate stderr does not name the bad file and key:\n%s", errBuf.String())
	}

	if code := run([]string{"validate"}, &out, &errBuf); code != exitUsage {
		t.Fatalf("validate with no args exited %d, want %d", code, exitUsage)
	}
}

func TestRunScenarioCmdUsageErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"run"}, &out, &errBuf); code != exitUsage {
		t.Fatalf("bare 'run' exited %d, want %d", code, exitUsage)
	}
	errBuf.Reset()
	if code := run([]string{"run", "no-such-file.yaml"}, &out, &errBuf); code != exitUsage {
		t.Fatalf("run on missing file exited %d, want %d", code, exitUsage)
	}
	errBuf.Reset()
	path := filepath.Join("..", "..", "scenarios", "fig3.yaml")
	if code := run([]string{"run", path, "-run", "fig5"}, &out, &errBuf); code != exitUsage {
		t.Fatalf("run <scenario> with -run exited %d, want %d", code, exitUsage)
	}

	// A scenario whose assertion cannot hold must exit with code 1.
	failing := filepath.Join(t.TempDir(), "must-fail.yaml")
	doc := `scenario: must-fail
title: "assertion failure exit-code probe"
mode: single
fleet:
  memory_mb: 512
  actual_mb: 256
schemes: [baseline]
workload:
  kind: seqread
  file_mb: 200
  iterations: 1
  quick_iterations: 1
table:
  title: "runtime [sec]"
assertions:
  - counter: workload.killed
    scheme: baseline
    op: "=="
    value: 1
`
	if err := os.WriteFile(failing, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errBuf.Reset()
	code := run([]string{"run", failing, "-quick", "-scale", "0.125", "-parallel", "1"}, &out, &errBuf)
	if code != exitFailures {
		t.Fatalf("failing-assertion scenario exited %d, want %d\nstdout: %s\nstderr: %s",
			code, exitFailures, out.String(), errBuf.String())
	}
	if !strings.Contains(out.String(), "ASSERTION FAILED") {
		t.Errorf("report does not surface the failed assertion:\n%s", out.String())
	}
}
