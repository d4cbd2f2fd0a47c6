// Package serve is the simulation-as-a-service layer (ROADMAP item 5):
// a long-running HTTP daemon (`vswapsim serve`) that accepts experiment and
// scenario jobs, runs them on a bounded worker pool reusing the parallel
// executor, and memoizes results in a crash-safe content-addressed cache.
//
// Determinism is what makes the cache sound: the executor's output is a
// pure function of (target, seed, scale, quick, faults, backend, policy,
// trace/audit/event budgets) and byte-identical at any parallelism, so a
// cache hit can serve the stored bytes verbatim — and tests prove warm
// and cold responses identical. Robustness is the headline elsewhere:
// bounded admission (429 + Retry-After), per-job panic isolation into
// FailureRecords, per-job watchdog budgets, graceful drain with queue
// persistence for restart recovery, and slow-client-safe event streams.
package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"vswapsim/internal/experiment"
	"vswapsim/internal/fault"
	"vswapsim/internal/scenario"
	"vswapsim/internal/swapback"
)

// Job states, in lifecycle order. done and failed are terminal.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// terminal reports whether a job in the given state will never change
// state again.
func terminal(state string) bool { return state == StateDone || state == StateFailed }

// JobRequest is the POST /jobs body: what to run and every knob that can
// influence the result. Exactly one of ID (a registry experiment id) and
// Scenario (an inline scenario YAML document) must be set. Zero values
// take the executor defaults (seed 42, scale 1.0). Parallel is an
// execution hint only — it never enters the cache key, because results
// are byte-identical across parallelism. CellTimeoutMS arms the PR-4
// wall-clock watchdog; it too stays out of the cache key (wall kills are
// nondeterministic, and timed-out jobs are never cached).
type JobRequest struct {
	ID            string  `json:"id,omitempty"`
	Scenario      string  `json:"scenario,omitempty"`
	Seed          uint64  `json:"seed,omitempty"`
	Scale         float64 `json:"scale,omitempty"`
	Quick         bool    `json:"quick,omitempty"`
	Parallel      int     `json:"parallel,omitempty"`
	TraceRing     int     `json:"tracering,omitempty"`
	Faults        string  `json:"faults,omitempty"`
	Swapback      string  `json:"swapback,omitempty"`
	SwapPolicy    string  `json:"swappolicy,omitempty"`
	AuditEvery    int     `json:"auditevery,omitempty"`
	MaxEvents     uint64  `json:"maxevents,omitempty"`
	CellTimeoutMS int64   `json:"celltimeout_ms,omitempty"`
}

// normalize fills executor defaults so equal-meaning requests hash and
// validate identically.
func (r JobRequest) normalize() JobRequest {
	if r.Seed == 0 {
		r.Seed = 42
	}
	if r.Scale == 0 {
		r.Scale = 1.0
	}
	return r
}

// target names what the job runs, for labels and diag bundles.
func (r JobRequest) target() string {
	if r.Scenario != "" {
		if sc, err := scenario.Parse([]byte(r.Scenario)); err == nil {
			return "scenario:" + sc.Name
		}
		return "scenario:?"
	}
	return r.ID
}

// Compile validates the request and resolves it into the experiment and
// executor options it names. It is the one validator behind every entry
// point: local vswapsim runs, the -server client before it submits, and
// the daemon on admission and before running. A scenario's own faults:
// and audit_every: fold into the options unless the request sets its own,
// so local and served documents report the same configuration. Zero
// values are not defaulted here (the daemon calls normalize first): the
// command line binds explicit defaults, so a zero -scale is an error, not
// "use 1.0".
func (r JobRequest) Compile() (experiment.Experiment, experiment.Options, error) {
	var e experiment.Experiment
	var o experiment.Options
	if (r.ID == "") == (r.Scenario == "") {
		return e, o, fmt.Errorf("exactly one of \"id\" and \"scenario\" must be set")
	}
	if r.Scale <= 0 || r.Scale > 16 {
		return e, o, fmt.Errorf("invalid scale %v: must be in (0, 16]", r.Scale)
	}
	if r.Parallel < 0 {
		return e, o, fmt.Errorf("invalid parallel %d: must be >= 0 (0 = server default)", r.Parallel)
	}
	if r.TraceRing < 0 {
		return e, o, fmt.Errorf("invalid tracering %d: must be >= 0", r.TraceRing)
	}
	if r.AuditEvery < 0 {
		return e, o, fmt.Errorf("invalid auditevery %d: must be >= 0", r.AuditEvery)
	}
	if r.CellTimeoutMS < 0 {
		return e, o, fmt.Errorf("invalid celltimeout %v: must be >= 0", time.Duration(r.CellTimeoutMS)*time.Millisecond)
	}
	o = experiment.Options{
		Seed: r.Seed, Scale: r.Scale, Quick: r.Quick,
		Parallel: r.Parallel, TraceRing: r.TraceRing,
		AuditEvery: r.AuditEvery, MaxEvents: r.MaxEvents,
		CellTimeout: time.Duration(r.CellTimeoutMS) * time.Millisecond,
	}
	var err error
	if o.Faults, err = fault.ParsePlan(r.Faults); err != nil {
		return e, o, fmt.Errorf("invalid faults: %v", err)
	}
	if o.Swapback, err = swapback.ParseKind(r.Swapback); err != nil {
		return e, o, fmt.Errorf("invalid swapback: %v", err)
	}
	if o.SwapPolicy, err = swapback.ParsePolicy(r.SwapPolicy); err != nil {
		return e, o, fmt.Errorf("invalid swappolicy: %v", err)
	}
	if r.ID != "" {
		e, err = experiment.ByID(r.ID)
		return e, o, err
	}
	sc, err := scenario.Parse([]byte(r.Scenario))
	if err != nil {
		return e, o, fmt.Errorf("invalid scenario: %v", err)
	}
	// A scenario that declares its own backend axis owns it: a non-default
	// request tier would silently lose to (or fight with) the declaration,
	// so the combination is an error rather than a precedence rule.
	if o.Swapback != swapback.HDD && len(sc.Backends) > 0 {
		return e, o, fmt.Errorf("swapback conflicts with the scenario's backend declaration")
	}
	if o.SwapPolicy != swapback.PolicyWriteback && sc.Policy != "" {
		return e, o, fmt.Errorf("swappolicy conflicts with the scenario's policy declaration")
	}
	if o.Faults.Empty() {
		o.Faults = sc.Faults
	}
	if o.AuditEvery == 0 {
		o.AuditEvery = sc.AuditEvery
	}
	return experiment.FromScenario(sc), o, nil
}

// Event is one progress notification on a job's event stream.
type Event struct {
	Seq   int    `json:"seq"`
	State string `json:"state"`
	Msg   string `json:"msg,omitempty"`
	AtMS  int64  `json:"at_ms"`
}

// Outcome summarizes what one executed job produced beyond its document
// bytes: the counts the exit hint derives from, the failure records for
// diag bundles, and — for a panic that escaped the executor's shields —
// the daemon-level FailureRecord.
type Outcome struct {
	Failures          int
	AssertionFailures int
	Incomplete        bool
	Records           []experiment.FailureRecord
	Failure           *experiment.FailureRecord
}

// JobStatus is the client-facing view of one job: the GET /jobs/{id}
// body, and the POST /jobs response. Document holds the job's
// machine-readable report verbatim (the exact cached bytes on a hit — the
// byte-identity contract is on this field) once the job is terminal.
type JobStatus struct {
	JobID             string                    `json:"job_id"`
	State             string                    `json:"state"`
	Cached            bool                      `json:"cached,omitempty"`
	CacheKey          string                    `json:"cache_key"`
	Request           JobRequest                `json:"request"`
	EnqueuedAtMS      int64                     `json:"enqueued_at_ms,omitempty"`
	StartedAtMS       int64                     `json:"started_at_ms,omitempty"`
	FinishedAtMS      int64                     `json:"finished_at_ms,omitempty"`
	Failures          int                       `json:"failures,omitempty"`
	AssertionFailures int                       `json:"assertion_failures,omitempty"`
	Incomplete        bool                      `json:"incomplete,omitempty"`
	ExitHint          int                       `json:"exit_hint"`
	Error             string                    `json:"error,omitempty"`
	Failure           *experiment.FailureRecord `json:"failure,omitempty"`
	Document          json.RawMessage           `json:"document,omitempty"`
}
