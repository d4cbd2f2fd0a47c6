package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"vswapsim/internal/experiment"
)

// tinyScenario is a single-scheme, 8MB-workload scenario that simulates
// in ~20ms — the inline-YAML counterpart to the tab1 registry target.
const tinyScenario = `scenario: tinysrv
title: "tiny serve test scenario"
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

// newTestServer builds, starts, and tears down a Server plus its HTTP
// front. mutate tweaks the Config before New.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		CacheDir:    t.TempDir(),
		Workers:     2,
		QueueDepth:  8,
		Parallel:    2,
		Fingerprint: testFingerprint,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
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
	return s, ts
}

func testClient(ts *httptest.Server) *Client {
	c := NewClient(ts.URL)
	c.PollInterval = 5 * time.Millisecond
	return c
}

// stubRunner returns a deterministic fake document derived from the
// request, so lifecycle tests need no simulation.
func stubRunner(ctx context.Context, req JobRequest, e experiment.Experiment, o experiment.Options) ([]byte, Outcome, error) {
	return []byte(fmt.Sprintf(`{"stub":"%s","seed":%d}`, req.target(), o.Seed)), Outcome{}, nil
}

// gate coordinates a blocking stub runner with the test body.
type gate struct {
	started chan string   // receives the job target when the runner begins
	release chan struct{} // closed (or fed) to let runners finish
}

func newGate() *gate {
	return &gate{started: make(chan string, 16), release: make(chan struct{})}
}

// runner blocks until released; a canceled context (forced drain, wall
// budget) yields a partial document marked incomplete, like the real
// executor would produce.
func (g *gate) runner(ctx context.Context, req JobRequest, e experiment.Experiment, o experiment.Options) ([]byte, Outcome, error) {
	g.started <- req.target()
	select {
	case <-g.release:
		return stubRunner(ctx, req, e, o)
	case <-ctx.Done():
		return []byte(`{"stub":"partial","incomplete":true}`), Outcome{Incomplete: true}, nil
	}
}

func (g *gate) waitStarted(t *testing.T) string {
	t.Helper()
	select {
	case id := <-g.started:
		return id
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a job to start")
		return ""
	}
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// --- cache warm/cold byte-identity ---------------------------------------

// TestWarmColdByteIdentityRegistry is the cache-hit contract on a real
// registry experiment: the second submission is served from the cache and
// its document is byte-identical to the cold run's.
func TestWarmColdByteIdentityRegistry(t *testing.T) {
	s, ts := newTestServer(t, nil) // real ExperimentRunner
	c := testClient(ts)
	req := JobRequest{ID: "tab1", Quick: true}

	cold, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("cold run reported cached")
	}
	if cold.State != StateDone || cold.ExitHint != 0 {
		t.Fatalf("cold run: state=%s exit=%d", cold.State, cold.ExitHint)
	}
	if len(cold.Document) == 0 {
		t.Fatal("cold run returned no document")
	}

	warm, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second submission was not served from cache")
	}
	if !bytes.Equal(cold.Document, warm.Document) {
		t.Fatalf("cache hit is not byte-identical:\ncold %s\nwarm %s", cold.Document, warm.Document)
	}
	get := s.Metrics()
	if get(MetricCacheMisses) != 1 || get(MetricCacheHits) != 1 || get(MetricCacheWrites) != 1 {
		t.Fatalf("cache counters: misses=%d hits=%d writes=%d, want 1/1/1",
			get(MetricCacheMisses), get(MetricCacheHits), get(MetricCacheWrites))
	}
	// The cached document must itself be valid, parallelism-free JSON.
	var doc experiment.JSONDocument
	if err := json.Unmarshal(warm.Document, &doc); err != nil {
		t.Fatalf("cached document does not parse: %v", err)
	}
	if doc.Parallel != 0 {
		t.Fatalf("job document encodes parallelism %d; cached results must not", doc.Parallel)
	}
}

// TestWarmColdByteIdentityScenario: the same contract through the inline
// scenario-YAML path.
func TestWarmColdByteIdentityScenario(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := testClient(ts)
	req := JobRequest{Scenario: tinyScenario, Seed: 7}

	cold, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached || !warm.Cached {
		t.Fatalf("cached flags: cold=%v warm=%v, want false/true", cold.Cached, warm.Cached)
	}
	if !bytes.Equal(cold.Document, warm.Document) {
		t.Fatal("scenario cache hit is not byte-identical")
	}
	// Different parallelism must still hit (the deliberate key collision),
	// and serve the same bytes.
	warm2, err := c.Run(context.Background(), JobRequest{Scenario: tinyScenario, Seed: 7, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !warm2.Cached || !bytes.Equal(cold.Document, warm2.Document) {
		t.Fatal("changing parallel broke the cache hit")
	}
}

// TestCorruptEntryRecomputed: a damaged cache entry is detected, counted,
// never served, and transparently recomputed to identical bytes.
func TestCorruptEntryRecomputed(t *testing.T) {
	s, ts := newTestServer(t, nil)
	c := testClient(ts)
	req := JobRequest{ID: "tab1", Quick: true}

	cold, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the entry on disk.
	path := s.cache.path(cold.CacheKey)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	again, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("corrupted entry was served as a cache hit")
	}
	if !bytes.Equal(cold.Document, again.Document) {
		t.Fatal("recomputed document differs from the original")
	}
	get := s.Metrics()
	if get(MetricCacheCorrupt) != 1 {
		t.Fatalf("corrupt counter = %d, want 1", get(MetricCacheCorrupt))
	}
	// Third submission hits the freshly rewritten entry.
	warm, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || !bytes.Equal(cold.Document, warm.Document) {
		t.Fatal("cache did not recover after corruption")
	}
}

// --- admission control ----------------------------------------------------

// TestQueueFullRejects429: with one worker wedged and the one queue slot
// taken, the next submission gets 429 plus a Retry-After hint — and a
// client that honors the hint succeeds once the logjam clears.
func TestQueueFullRejects429(t *testing.T) {
	g := newGate()
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.Runner = g.runner
		c.RetryAfter = time.Second
	})
	// Job 1 occupies the worker; job 2 occupies the queue slot.
	postJob(t, ts, `{"id":"fig3"}`)
	g.waitStarted(t)
	postJob(t, ts, `{"id":"fig4"}`)

	resp, body := postJob(t, ts, `{"id":"fig5"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if got := s.Metrics()(MetricJobsRejectedFull); got != 1 {
		t.Fatalf("queuefull counter = %d, want 1", got)
	}

	// Release the gate in the background; a retrying client waits out the
	// hint and lands the job.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(g.release)
		for range g.started { // drain so later runners don't block
		}
	}()
	defer close(g.started)
	c := testClient(ts)
	st, err := c.Run(context.Background(), JobRequest{ID: "fig5"})
	if err != nil {
		t.Fatalf("retrying submit failed: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("retried job state %s, want done", st.State)
	}
}

// TestRateLimit429: the token bucket rejects a burst past its capacity.
func TestRateLimit429(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Runner = stubRunner
		c.RatePerSec = 0.001 // effectively: the burst is all you get
		c.RateBurst = 2
	})
	codes := make([]int, 0, 3)
	for i := 0; i < 3; i++ {
		resp, _ := postJob(t, ts, `{"id":"tab1"}`)
		codes = append(codes, resp.StatusCode)
	}
	if codes[0] == http.StatusTooManyRequests || codes[1] == http.StatusTooManyRequests {
		t.Fatalf("burst rejected early: %v", codes)
	}
	if codes[2] != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", codes[2])
	}
	if got := s.Metrics()(MetricJobsRejectedRate); got != 1 {
		t.Fatalf("ratelimit counter = %d, want 1", got)
	}
}

// TestSubmitValidation: malformed and invalid bodies are 400s (413 for
// oversized), counted, and never enqueued.
func TestSubmitValidation(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Runner = stubRunner
		c.MaxBodyBytes = 512
	})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"id":`, http.StatusBadRequest},
		{"unknown field", `{"id":"tab1","bogus":1}`, http.StatusBadRequest},
		{"neither id nor scenario", `{}`, http.StatusBadRequest},
		{"both id and scenario", `{"id":"tab1","scenario":"x"}`, http.StatusBadRequest},
		{"unknown id", `{"id":"nope"}`, http.StatusBadRequest},
		{"bad scale", `{"id":"tab1","scale":-1}`, http.StatusBadRequest},
		{"negative parallel", `{"id":"tab1","parallel":-1}`, http.StatusBadRequest},
		{"negative auditevery", `{"id":"tab1","auditevery":-5}`, http.StatusBadRequest},
		{"bad faults", `{"id":"tab1","faults":"frobnicate:1"}`, http.StatusBadRequest},
		{"bad swapback", `{"id":"tab1","swapback":"floppy"}`, http.StatusBadRequest},
		{"bad scenario yaml", `{"scenario":"not: [valid"}`, http.StatusBadRequest},
		{"oversized body", `{"id":"tab1","scenario":"` + strings.Repeat("x", 600) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJob(t, ts, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body missing: %s", body)
			}
		})
	}
	if got := s.Metrics()(MetricJobsRejectedBad); got != int64(len(cases)) {
		t.Fatalf("invalid counter = %d, want %d", got, len(cases))
	}
	if got := s.Metrics()(MetricJobsAccepted); got != 0 {
		t.Fatalf("accepted counter = %d, want 0", got)
	}
}

// --- panic isolation ------------------------------------------------------

// TestPanicIsolation: a job whose runner panics becomes a failed job with
// a structured FailureRecord; the daemon survives and runs the next job.
func TestPanicIsolation(t *testing.T) {
	boom := true
	s, ts := newTestServer(t, func(c *Config) {
		c.Runner = func(ctx context.Context, req JobRequest, e experiment.Experiment, o experiment.Options) ([]byte, Outcome, error) {
			if boom {
				boom = false
				panic("synthetic runner explosion")
			}
			return stubRunner(ctx, req, e, o)
		}
		c.Workers = 1
	})
	c := testClient(ts)
	st, err := c.Run(context.Background(), JobRequest{ID: "tab1"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.ExitHint != 1 {
		t.Fatalf("panicked job: state=%s exit=%d, want failed/1", st.State, st.ExitHint)
	}
	if st.Failure == nil || st.Failure.Kind != experiment.FailPanic {
		t.Fatalf("panicked job carries no panic FailureRecord: %+v", st.Failure)
	}
	if !strings.Contains(st.Failure.Message, "synthetic runner explosion") {
		t.Fatalf("failure message %q lost the panic value", st.Failure.Message)
	}
	if got := s.Metrics()(MetricJobsFailed); got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
	// The daemon is still alive and well.
	st2, err := c.Run(context.Background(), JobRequest{ID: "tab1", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || st2.ExitHint != 0 {
		t.Fatalf("post-panic job: state=%s exit=%d", st2.State, st2.ExitHint)
	}
}

// --- graceful drain and restart recovery ----------------------------------

// TestDrainPersistsAndRestartRecovers is the crash-safety round trip: a
// forced drain marks the in-flight job incomplete (exit hint 3), persists
// it and the queued jobs, and a fresh server on the same state path
// re-runs exactly those jobs — same ids — to completion. Incomplete
// results never enter the cache.
func TestDrainPersistsAndRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	statePath := dir + "/state.json"
	cacheDir := dir + "/cache"

	g := newGate()
	s1, err := New(Config{
		CacheDir: cacheDir, StatePath: statePath,
		Workers: 1, QueueDepth: 4,
		Runner: g.runner, Fingerprint: testFingerprint,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())

	ids := make([]string, 0, 3)
	for i, id := range []string{"fig3", "fig4", "fig5"} {
		resp, body := postJob(t, ts1, fmt.Sprintf(`{"id":%q}`, id))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d (%s)", i, resp.StatusCode, body)
		}
		var st JobStatus
		json.Unmarshal(body, &st)
		ids = append(ids, st.JobID)
	}
	g.waitStarted(t) // job 1 is now in flight and wedged

	// Forced drain: the deadline is already expired.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	clean, err := s1.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if clean {
		t.Fatal("forced drain reported clean")
	}
	// The interrupted job is terminal, incomplete, exit hint 3.
	st1, err := NewClient(ts1.URL).Job(context.Background(), ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !st1.Incomplete || st1.ExitHint != 3 {
		t.Fatalf("interrupted job: incomplete=%v exit=%d, want true/3", st1.Incomplete, st1.ExitHint)
	}
	ts1.Close()
	if got := s1.Metrics()(MetricCacheWrites); got != 0 {
		t.Fatalf("incomplete result was cached (writes=%d)", got)
	}

	// The persisted state names all three jobs, in submission order.
	data, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatalf("no state file after drain: %v", err)
	}
	var st persistedState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	gotIDs := make([]string, len(st.Pending))
	for i, p := range st.Pending {
		gotIDs[i] = p.ID
	}
	if fmt.Sprint(gotIDs) != fmt.Sprint(ids) {
		t.Fatalf("persisted ids %v, want %v", gotIDs, ids)
	}

	// Restart: same state path, unwedged runner. All three jobs recover
	// under their original ids and complete deterministically.
	s2, err := New(Config{
		CacheDir: cacheDir, StatePath: statePath,
		Workers: 2, QueueDepth: 4,
		Runner: stubRunner, Fingerprint: testFingerprint,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Metrics()(MetricJobsRecovered); got != 3 {
		t.Fatalf("recovered counter = %d, want 3", got)
	}
	if _, err := os.Stat(statePath); !os.IsNotExist(err) {
		t.Fatal("state file not consumed on recovery")
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := testClient(ts2)
	for _, id := range ids {
		st, err := c2.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("recovered job %s: %v", id, err)
		}
		if st.State != StateDone || st.Incomplete {
			t.Fatalf("recovered job %s: state=%s incomplete=%v", id, st.State, st.Incomplete)
		}
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if clean, err := s2.Drain(ctx2); err != nil || !clean {
		t.Fatalf("second drain: clean=%v err=%v", clean, err)
	}
	// Nothing pending: no state file left behind.
	if _, err := os.Stat(statePath); !os.IsNotExist(err) {
		t.Fatal("clean drain left a state file")
	}
}

// TestDrainRejectsNewSubmissions: a draining server answers 503.
func TestDrainRejectsNewSubmissions(t *testing.T) {
	g := newGate()
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Runner = g.runner
	})
	postJob(t, ts, `{"id":"fig3"}`)
	g.waitStarted(t)

	drained := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		s.Drain(ctx)
		close(drained)
	}()
	// Wait for the draining flag to publish.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		d := s.draining
		s.mu.Unlock()
		if d {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := postJob(t, ts, `{"id":"fig4"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	cancel() // force out the wedged job
	<-drained
}

// --- events, health, metrics ----------------------------------------------

// TestEventsStream: the stream replays history for a finished job and
// follows a live one through to its terminal event.
func TestEventsStream(t *testing.T) {
	g := newGate()
	_, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Runner = g.runner
		c.Heartbeat = 20 * time.Millisecond
	})
	resp, body := postJob(t, ts, `{"id":"tab1"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, body)
	}
	var st JobStatus
	json.Unmarshal(body, &st)
	g.waitStarted(t)

	stream, err := http.Get(ts.URL + "/jobs/" + st.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(g.release)
	}()
	var lines []string
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"event: queued", "event: running", "event: done"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("stream missing %q:\n%s", want, joined)
		}
	}
	if !strings.Contains(joined, ": heartbeat") {
		t.Fatalf("stream carried no heartbeat:\n%s", joined)
	}

	// Replaying the finished job's stream yields the same history and
	// terminates immediately.
	replay, err := http.Get(ts.URL + "/jobs/" + st.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Body.Close()
	var rbuf bytes.Buffer
	rbuf.ReadFrom(replay.Body)
	for _, want := range []string{"event: queued", "event: running", "event: done"} {
		if !strings.Contains(rbuf.String(), want) {
			t.Fatalf("replay missing %q:\n%s", want, rbuf.String())
		}
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Runner = stubRunner })
	for _, path := range []string{"/jobs/j-404", "/jobs/j-404/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHealthz: liveness with the load picture.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Runner = stubRunner })
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("status %v", body["status"])
	}
	for _, k := range []string{"queue_depth", "queue_cap", "running", "workers"} {
		if _, ok := body[k]; !ok {
			t.Fatalf("healthz missing %q: %v", k, body)
		}
	}
}

// TestMetricsEndpoint: Prometheus text with the serve counters (including
// zero-valued ones) and the live gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Runner = stubRunner })
	c := testClient(ts)
	if _, err := c.Run(context.Background(), JobRequest{ID: "tab1"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"serve_jobs_accepted 1",
		"serve_jobs_completed 1",
		"serve_cache_misses 1",
		"serve_cache_hits 0", // zero-valued counters still render
		"serve_queue_depth ",
		"serve_jobs_running ",
		"serve_job_wall_ns_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestBudgetCaps: the server's watchdog ceilings tighten permissive jobs
// but leave tighter requests alone.
func TestBudgetCaps(t *testing.T) {
	cases := []struct {
		name            string
		req             JobRequest
		maxEventsCap    uint64
		cellTimeoutCap  time.Duration
		wantMaxEvents   uint64
		wantCellTimeout time.Duration
	}{
		{"uncapped passthrough", JobRequest{ID: "tab1", MaxEvents: 10, CellTimeoutMS: 20}, 0, 0, 10, 20 * time.Millisecond},
		{"cap applies to unlimited", JobRequest{ID: "tab1"}, 100, time.Second, 100, time.Second},
		{"cap tightens looser job", JobRequest{ID: "tab1", MaxEvents: 500, CellTimeoutMS: 5000}, 100, time.Second, 100, time.Second},
		{"tighter job wins", JobRequest{ID: "tab1", MaxEvents: 50, CellTimeoutMS: 500}, 100, time.Second, 50, 500 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, o, err := tc.req.normalize().Compile()
			if err != nil {
				t.Fatal(err)
			}
			o = Config{Parallel: 2, MaxEventsCap: tc.maxEventsCap, CellTimeoutCap: tc.cellTimeoutCap}.limit(o)
			if o.MaxEvents != tc.wantMaxEvents {
				t.Errorf("MaxEvents = %d, want %d", o.MaxEvents, tc.wantMaxEvents)
			}
			if o.CellTimeout != tc.wantCellTimeout {
				t.Errorf("CellTimeout = %v, want %v", o.CellTimeout, tc.wantCellTimeout)
			}
		})
	}
}
