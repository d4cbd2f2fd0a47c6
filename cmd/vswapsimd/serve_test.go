// Package servecmd_test tests `vswapsim serve`, the HTTP daemon, through
// the cli package that implements it. The tests keep this directory so
// their ids stay stable; the command itself is cmd/vswapsim.
package servecmd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vswapsim/internal/cli"
	"vswapsim/internal/serve"
)

// registeredFlags returns the name of every flag serve registers.
func registeredFlags(t *testing.T) []string {
	t.Helper()
	fs := cli.NewFlagSet("serve", &cli.Flags{})
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no flags registered")
	}
	return names
}

// TestParseArgsTable: the daemon's flag validation, positive and negative.
func TestParseArgsTable(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"defaults", nil, ""},
		{"all knobs", []string{
			"-addr", ":0", "-cachedir", "/tmp/c", "-statefile", "/tmp/s",
			"-workers", "4", "-queue", "32", "-parallel", "2",
			"-maxbody", "4096", "-rate", "10", "-burst", "20",
			"-retryafter", "2s", "-maxevents", "1000000", "-celltimeout", "30s",
			"-heartbeat", "1s", "-writetimeout", "5s", "-draintimeout", "3s",
			"-diagdir", "/tmp/d"}, ""},
		{"positional arg", []string{"extra"}, "unexpected argument"},
		{"empty cachedir", []string{"-cachedir", ""}, "-cachedir"},
		{"zero workers", []string{"-workers", "0"}, "-workers"},
		{"negative workers", []string{"-workers", "-3"}, "-workers"},
		{"zero queue", []string{"-queue", "0"}, "-queue"},
		{"negative parallel", []string{"-parallel", "-1"}, "-parallel"},
		{"zero maxbody", []string{"-maxbody", "0"}, "-maxbody"},
		{"negative rate", []string{"-rate", "-1"}, "-rate"},
		{"negative burst", []string{"-burst", "-1"}, "-burst"},
		{"negative celltimeout", []string{"-celltimeout", "-1s"}, "durations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cli.Parse("serve", tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunUsageErrors: every bad invocation exits 2 with the one-line
// usage hint on stderr.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "0"},
		{"-queue", "-1"},
		{"-parallel", "-2"},
		{"-nosuchflag"},
		{"stray-positional"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli.Main(append([]string{"serve"}, args...), &stdout, &stderr); code != cli.ExitUsage {
			t.Errorf("serve %v = %d, want %d", args, code, cli.ExitUsage)
		}
		if s := stderr.String(); !strings.Contains(strings.ToLower(s), "usage") {
			t.Errorf("serve %v stderr lacks a usage hint: %q", args, s)
		}
	}
}

// TestUsageMentionsEveryFlag pins -h output against flag-registration
// drift, like the test of the other subcommands in cmd/vswapsim.
func TestUsageMentionsEveryFlag(t *testing.T) {
	fs := cli.NewFlagSet("serve", &cli.Flags{})
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.Usage()
	usage := buf.String()
	for _, name := range registeredFlags(t) {
		if !strings.Contains(usage, "-"+name) {
			t.Errorf("usage output does not mention registered flag -%s", name)
		}
	}
	if !strings.Contains(usage, "vswapsim serve [flags]") {
		t.Error("usage header does not list the command form")
	}
}

// TestREADMEDocumentsEveryFlag extends the README drift guarantee to the
// daemon: every serve flag needs a README mention.
func TestREADMEDocumentsEveryFlag(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, name := range registeredFlags(t) {
		if !regexp.MustCompile("`-" + name + "[ `]").MatchString(readme) {
			t.Errorf("README.md does not document serve flag -%s", name)
		}
	}
	if !strings.Contains(readme, "Serving mode") {
		t.Error("README.md lacks the \"Serving mode\" section")
	}
}

// TestServerConfigMapping: the command line lands on serve.Config intact.
func TestServerConfigMapping(t *testing.T) {
	f, err := cli.Parse("serve", []string{
		"-cachedir", "/tmp/c", "-statefile", "/tmp/s", "-workers", "3",
		"-queue", "9", "-parallel", "2", "-maxbody", "2048", "-rate", "5",
		"-burst", "7", "-retryafter", "2s", "-maxevents", "12345",
		"-celltimeout", "4s", "-diagdir", "/tmp/d"})
	if err != nil {
		t.Fatal(err)
	}
	got := f.Serve
	want := serve.Config{
		CacheDir: "/tmp/c", StatePath: "/tmp/s", Workers: 3, QueueDepth: 9,
		Parallel: 2, MaxBodyBytes: 2048, RatePerSec: 5, RateBurst: 7,
		RetryAfter: 2 * time.Second, MaxEventsCap: 12345,
		CellTimeoutCap: 4 * time.Second,
		Heartbeat:      5 * time.Second, WriteTimeout: 10 * time.Second,
		DiagDir: "/tmp/d",
	}
	// Config carries a func field (Runner), so compare via reflection.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("serve.Config mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for cross-goroutine capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon launches `vswapsim serve` in-process on an ephemeral port
// and returns its base URL, its state-file path, and the exit-code channel.
func startDaemon(t *testing.T, extraArgs []string, stdout *syncBuffer) (string, string, chan int) {
	t.Helper()
	dir := t.TempDir()
	statePath := filepath.Join(dir, "state.json")
	args := append([]string{
		"serve", "-addr", "127.0.0.1:0",
		"-cachedir", filepath.Join(dir, "cache"),
		"-statefile", statePath,
	}, extraArgs...)
	var stderr syncBuffer
	codeCh := make(chan int, 1)
	go func() { codeCh <- cli.Main(args, stdout, &stderr) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			return "http://" + m[1], statePath, codeCh
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its listen address; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitExit(t *testing.T, codeCh chan int) int {
	t.Helper()
	select {
	case code := <-codeCh:
		return code
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after signal")
		return -1
	}
}

// TestDaemonSIGTERMCleanExit is the end-to-end clean-shutdown contract:
// serve a real job, SIGTERM with nothing in flight, exit 0 with every
// accepted job settled and no recovery state left behind.
func TestDaemonSIGTERMCleanExit(t *testing.T) {
	if testing.Short() {
		t.Skip("sends a real SIGTERM to the test process")
	}
	var stdout syncBuffer
	base, statePath, codeCh := startDaemon(t, nil, &stdout)
	cl := serve.NewClient(base)
	cl.PollInterval = 10 * time.Millisecond
	st, err := cl.Run(context.Background(), serve.JobRequest{ID: "tab1", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone || st.ExitHint != 0 {
		t.Fatalf("job: state=%s exit=%d", st.State, st.ExitHint)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, codeCh); code != cli.ExitOK {
		t.Fatalf("exit code %d, want %d; stdout:\n%s", code, cli.ExitOK, stdout.String())
	}
	if !strings.Contains(stdout.String(), "clean drain") {
		t.Fatalf("stdout lacks clean-drain line:\n%s", stdout.String())
	}
	// Nothing was pending: no recovery state on disk.
	if _, err := os.Stat(statePath); !os.IsNotExist(err) {
		t.Fatal("clean drain left a state file behind")
	}
}

// TestDaemonSIGTERMMidJobForcedDrain: SIGTERM while a long job is in
// flight (and a drain window too short for it) cancels the job, marks its
// result incomplete, exits 3, and persists the job for restart recovery.
func TestDaemonSIGTERMMidJobForcedDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("sends a real SIGTERM to the test process")
	}
	var stdout syncBuffer
	base, statePath, codeCh := startDaemon(t, []string{"-draintimeout", "200ms", "-workers", "1"}, &stdout)
	cl := serve.NewClient(base)
	cl.PollInterval = 10 * time.Millisecond

	// fig5 un-quick runs for seconds — plenty of time to interrupt.
	sub, err := cl.Submit(context.Background(), serve.JobRequest{ID: "fig5"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := cl.Job(context.Background(), sub.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == serve.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, codeCh); code != cli.ExitIncomplete {
		t.Fatalf("exit code %d, want %d; stdout:\n%s", code, cli.ExitIncomplete, stdout.String())
	}
	// The interrupted job persisted for the next start, under its own id.
	data, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatalf("forced drain persisted no state: %v", err)
	}
	var st struct {
		Pending []struct {
			ID      string           `json:"id"`
			Request serve.JobRequest `json:"request"`
		} `json:"pending"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Pending) != 1 || st.Pending[0].ID != sub.JobID || st.Pending[0].Request.ID != "fig5" {
		t.Fatalf("persisted state %s, want the interrupted fig5 job %s", data, sub.JobID)
	}
}
