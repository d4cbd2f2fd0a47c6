// Package cli is the vswapsim command line: the list, run, report,
// validate, bench and serve subcommands behind cmd/vswapsim.
//
// run, report and bench bind their executor flags straight into
// serve.JobRequest, the daemon's wire type, and compile it with
// JobRequest.Compile: local runs, the -server client and the daemon all
// validate the same way. run and report render local and served results
// through one text/JSON path (sink).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"vswapsim/internal/experiment"
	"vswapsim/internal/scenario"
	"vswapsim/internal/serve"
	"vswapsim/internal/swapback"
)

// Exit codes, shared by every subcommand. serve exits ExitIncomplete on a
// forced drain (in-flight jobs canceled and persisted for restart).
const (
	ExitOK         = 0
	ExitFailures   = 1
	ExitUsage      = 2
	ExitIncomplete = 3
)

// commands lists every subcommand with its synopsis, in usage order.
var commands = []struct{ name, synopsis string }{
	{"list", "list"},
	{"run", "run <id|scenario.yaml> [flags]"},
	{"report", "report [-only ids] [-csv dir] [flags]"},
	{"validate", "validate <scenario.yaml>..."},
	{"bench", "bench [-iters N] [-only ids] [flags]"},
	{"serve", "serve [flags]"},
}

// Commands returns the subcommand names in usage order.
func Commands() []string {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	return names
}

func synopsis(cmd string) string {
	for _, c := range commands {
		if c.name == cmd {
			return c.synopsis
		}
	}
	return ""
}

// usage is the top-level help text.
func usage() string {
	var b strings.Builder
	b.WriteString("Usage:\n")
	for _, c := range commands {
		fmt.Fprintf(&b, "  vswapsim %s\n", c.synopsis)
	}
	b.WriteString("\nRun 'vswapsim <command> -h' for the flags of one command.\n")
	return b.String()
}

// Flags is one parsed command line.
type Flags struct {
	// Args are the positional arguments: run's target, validate's files.
	Args []string
	// Job holds the executor knobs of run, report and bench, bound
	// straight from their flags. For run, Parse also sets its ID or
	// Scenario from the target.
	Job serve.JobRequest

	Only       string // report, bench: comma-separated registry ids
	CSVDir     string
	Out        string // tee stdout to this file
	JSON       bool
	DiagDir    string
	CPUProfile string
	MemProfile string
	Server     string
	Iters      int // bench

	// serve: the daemon's configuration, bound straight from its flags.
	Addr         string
	DrainTimeout time.Duration
	Serve        serve.Config

	// Exps and Opts are what run, report and bench compile to: the
	// experiments in output order and the options they all share.
	Exps []experiment.Experiment
	Opts experiment.Options
}

// NewFlagSet registers cmd's flags on a fresh FlagSet bound to f. run and
// report share one executor flag set; bench and serve keep their own.
func NewFlagSet(cmd string, f *Flags) *flag.FlagSet {
	fs := flag.NewFlagSet("vswapsim "+cmd, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage:\n  vswapsim %s\n", synopsis(cmd))
		n := 0
		fs.VisitAll(func(*flag.Flag) { n++ })
		if n > 0 {
			fmt.Fprint(fs.Output(), "\nFlags:\n")
			fs.PrintDefaults()
		}
	}
	switch cmd {
	case "run", "report", "bench":
		scale, parallel := 1.0, runtime.GOMAXPROCS(0)
		if cmd == "bench" {
			// Small and serial: the stable defaults for timing.
			scale, parallel = 0.125, 1
		}
		fs.Float64Var(&f.Job.Scale, "scale", scale, "size scale factor in (0, 16] (1.0 = paper-sized)")
		fs.Uint64Var(&f.Job.Seed, "seed", 42, "random seed")
		fs.IntVar(&f.Job.Parallel, "parallel", parallel,
			"max concurrent simulator runs (1 = serial; results are identical either way)")
		fs.StringVar(&f.Out, "o", "", "also write everything printed on stdout to this file")
	}
	if cmd == "report" || cmd == "bench" {
		fs.StringVar(&f.Only, "only", "", "comma-separated experiment ids, e.g. fig5,fig11 (empty = the whole registry)")
	}
	switch cmd {
	case "run", "report":
		fs.BoolVar(&f.Job.Quick, "quick", false, "trim sweeps for a fast smoke run")
		fs.BoolVar(&f.JSON, "json", false,
			"print the machine-readable report (tables + per-run counters/histograms/phases) instead of text")
		fs.IntVar(&f.Job.TraceRing, "tracering", 0,
			"attach a trace ring of this capacity to every machine; run reports embed its tail")
		fs.StringVar(&f.Job.Faults, "faults", "",
			"fault-injection spec, e.g. 'disk-read-err:0.01;disk-lat:0.05:2ms;swapin-fail:0.02'")
		fs.StringVar(&f.Job.Swapback, "swapback", "",
			"swap-backend tier: "+strings.Join(swapback.KindNames(), ", ")+" (empty = hdd, the raw swap device)")
		fs.StringVar(&f.Job.SwapPolicy, "swappolicy", "",
			"tiering policy for backends with a fast tier: "+strings.Join(swapback.PolicyNames(), ", ")+" (empty = writeback)")
		fs.IntVar(&f.Job.AuditEvery, "auditevery", 0,
			"run the invariant auditor every N simulated events (0 = off; a violation aborts the run)")
		fs.Uint64Var(&f.Job.MaxEvents, "maxevents", 0,
			"per-cell simulated-event budget; a breach kills only that cell, deterministically (0 = unlimited)")
		fs.Func("celltimeout",
			"per-cell wall-clock budget, a `duration` of whole milliseconds (e.g. 30s); a breach is fatal and cancels the rest of the run (0 = unlimited)",
			func(s string) error {
				d, err := time.ParseDuration(s)
				if err != nil {
					return err
				}
				if d%time.Millisecond != 0 {
					return fmt.Errorf("%v is not a whole number of milliseconds", d)
				}
				f.Job.CellTimeoutMS = d.Milliseconds()
				return nil
			})
		fs.StringVar(&f.CSVDir, "csv", "", "also write each table as CSV into this directory")
		fs.StringVar(&f.DiagDir, "diagdir", "",
			"write one replayable crash-diagnostics bundle (JSON) per failed cell into this directory")
		fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
		fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file")
		fs.StringVar(&f.Server, "server", "",
			"run via a vswapsim serve daemon at this base URL (e.g. http://127.0.0.1:8080); repeated runs hit its result cache")
	case "bench":
		fs.IntVar(&f.Iters, "iters", 3, "iterations per experiment (the best wall time is kept)")
	case "serve":
		c := &f.Serve
		fs.StringVar(&f.Addr, "addr", "127.0.0.1:8080", "listen address")
		fs.StringVar(&c.CacheDir, "cachedir", ".vswapsimd/cache",
			"content-addressed result cache directory (delete it to flush; rebuilding the binary invalidates it)")
		fs.StringVar(&c.StatePath, "statefile", ".vswapsimd/state.json",
			"queue-state file for restart recovery of jobs accepted but unfinished at shutdown (empty = no persistence)")
		fs.IntVar(&c.Workers, "workers", 2, "number of concurrent job workers")
		fs.IntVar(&c.QueueDepth, "queue", 16,
			"bounded queue depth; a full queue rejects submissions with 429 + Retry-After")
		fs.IntVar(&c.Parallel, "parallel", 0,
			"per-job executor parallelism when the job does not set its own (0 = GOMAXPROCS)")
		fs.Int64Var(&c.MaxBodyBytes, "maxbody", 1<<20, "maximum request body size in bytes")
		fs.Float64Var(&c.RatePerSec, "rate", 0, "global job-submission rate limit per second (0 = unlimited)")
		fs.IntVar(&c.RateBurst, "burst", 0, "rate-limiter burst size (0 = derived from -rate)")
		fs.DurationVar(&c.RetryAfter, "retryafter", time.Second, "Retry-After hint returned with 429 responses")
		fs.Uint64Var(&c.MaxEventsCap, "maxevents", 0,
			"server-side ceiling on the per-job simulated-event budget (0 = no ceiling)")
		fs.DurationVar(&c.CellTimeoutCap, "celltimeout", 0,
			"server-side ceiling on the per-job wall-clock budget, e.g. 30s (0 = no ceiling)")
		fs.DurationVar(&c.Heartbeat, "heartbeat", 5*time.Second, "event-stream keepalive interval")
		fs.DurationVar(&c.WriteTimeout, "writetimeout", 10*time.Second,
			"per-write deadline on event streams; a client slower than this is dropped")
		fs.DurationVar(&f.DrainTimeout, "draintimeout", 10*time.Second,
			"how long a SIGINT/SIGTERM drain waits for in-flight jobs before canceling them")
		fs.StringVar(&c.DiagDir, "diagdir", "",
			"write one replayable crash-diagnostics bundle (JSON) per failed cell into this directory")
	}
	return fs
}

// Parse binds args (the words after the subcommand) to cmd's flags.
// Positional arguments may sit between flags: run takes exactly one, its
// target; validate takes one or more files; the other commands take
// none. For run, report and bench, Parse also compiles the job.
func Parse(cmd string, args []string) (Flags, error) {
	var f Flags
	fs := NewFlagSet(cmd, &f)
	fs.SetOutput(io.Discard)
	for {
		if err := fs.Parse(args); err != nil {
			return f, err
		}
		if fs.NArg() == 0 {
			break
		}
		f.Args = append(f.Args, fs.Arg(0))
		args = fs.Args()[1:]
	}
	switch n := len(f.Args); {
	case cmd == "run" && n == 0:
		return f, errors.New("missing target: a registry id or a scenario .yaml")
	case cmd == "validate" && n == 0:
		return f, errors.New("no scenario files given")
	case cmd == "run" && n > 1:
		return f, fmt.Errorf("unexpected argument %q", f.Args[1])
	case cmd != "run" && cmd != "validate" && n > 0:
		return f, fmt.Errorf("unexpected argument %q", f.Args[0])
	}
	switch cmd {
	case "list", "validate":
		return f, nil
	case "serve":
		return f, f.checkServe()
	case "bench":
		if f.Iters < 1 {
			return f, fmt.Errorf("invalid -iters %d: must be >= 1", f.Iters)
		}
	default:
		if f.Server != "" && (f.DiagDir != "" || f.CPUProfile != "" || f.MemProfile != "") {
			return f, errors.New("-diagdir, -cpuprofile and -memprofile are local-only; with -server use the daemon's -diagdir")
		}
	}
	// The wire format reads parallel 0 as "daemon default"; on the command
	// line it is a mistake.
	if f.Job.Parallel < 1 {
		return f, fmt.Errorf("invalid -parallel %d: must be >= 1", f.Job.Parallel)
	}
	return f, f.compile(cmd)
}

// compile resolves the command's targets and compiles one job per
// experiment with JobRequest.Compile. run's target is a scenario when it
// ends in .yaml or .yml and a registry id otherwise; report and bench run
// the -only ids, or the whole registry.
func (f *Flags) compile(cmd string) error {
	var reqs []serve.JobRequest
	if cmd == "run" {
		if t := f.Args[0]; strings.HasSuffix(t, ".yaml") || strings.HasSuffix(t, ".yml") {
			data, err := os.ReadFile(t)
			if err != nil {
				return err
			}
			f.Job.Scenario = string(data)
		} else {
			f.Job.ID = t
		}
		reqs = append(reqs, f.Job)
	} else {
		if cmd == "bench" {
			f.Job.Quick = true
		}
		ids := experiment.IDs()
		if f.Only != "" {
			ids = strings.Split(f.Only, ",")
		}
		for _, id := range ids {
			req := f.Job
			if req.ID = strings.TrimSpace(id); req.ID == "" {
				return fmt.Errorf("empty id in -only %q", f.Only)
			}
			reqs = append(reqs, req)
		}
	}
	for _, req := range reqs {
		e, o, err := req.Compile()
		if err != nil {
			if req.Scenario != "" {
				return fmt.Errorf("%s: %w", f.Args[0], err)
			}
			return err
		}
		f.Exps = append(f.Exps, e)
		f.Opts = o
	}
	return nil
}

// checkServe range-checks the daemon flags.
func (f *Flags) checkServe() error {
	c := f.Serve
	switch {
	case c.CacheDir == "":
		return errors.New("-cachedir must not be empty")
	case c.Workers < 1:
		return fmt.Errorf("invalid -workers %d: must be >= 1", c.Workers)
	case c.QueueDepth < 1:
		return fmt.Errorf("invalid -queue %d: must be >= 1", c.QueueDepth)
	case c.Parallel < 0:
		return fmt.Errorf("invalid -parallel %d: must be >= 0 (0 = GOMAXPROCS)", c.Parallel)
	case c.MaxBodyBytes < 1:
		return fmt.Errorf("invalid -maxbody %d: must be >= 1", c.MaxBodyBytes)
	case c.RatePerSec < 0:
		return fmt.Errorf("invalid -rate %v: must be >= 0", c.RatePerSec)
	case c.RateBurst < 0:
		return fmt.Errorf("invalid -burst %d: must be >= 0", c.RateBurst)
	case c.RetryAfter < 0 || c.CellTimeoutCap < 0 || c.Heartbeat < 0 || c.WriteTimeout < 0 || f.DrainTimeout < 0:
		return errors.New("durations must be >= 0")
	}
	return nil
}

// Main runs the vswapsim command line (args without the program name) and
// returns its exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || synopsis(args[0]) == "" {
		if len(args) > 0 && !strings.Contains(" -h -help --help help ", " "+args[0]+" ") {
			fmt.Fprintf(stderr, "vswapsim: unknown command %q\n", args[0])
		}
		fmt.Fprint(stderr, usage())
		return ExitUsage
	}
	cmd := args[0]
	f, err := Parse(cmd, args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		fs := NewFlagSet(cmd, &Flags{})
		fs.SetOutput(stderr)
		fs.Usage()
		return ExitUsage
	case errors.Is(err, experiment.ErrUnknownExperiment):
		fmt.Fprintf(stderr, "vswapsim %s: %v\n", cmd, err)
		return ExitFailures
	case err != nil:
		fmt.Fprintf(stderr, "vswapsim %s: %v (run 'vswapsim %s -h' for usage)\n", cmd, err, cmd)
		return ExitUsage
	}
	switch cmd {
	case "list":
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range experiment.Registry {
			fmt.Fprintf(stdout, "  %-9s %-45s (%s)\n", e.ID, e.Title, e.PaperNote)
		}
		fmt.Fprintln(stdout, "\ndeclarative scenarios run with: vswapsim run <scenario.yaml> (see scenarios/)")
		return ExitOK
	case "validate":
		return validate(f.Args, stdout, stderr)
	case "bench":
		return bench(&f, stdout, stderr)
	case "serve":
		return serveDaemon(&f, stdout, stderr)
	}
	return execute(cmd, &f, stdout, stderr)
}

// validate implements `vswapsim validate <scenario.yaml>...`: parse and
// check each file without running it.
func validate(paths []string, stdout, stderr io.Writer) int {
	bad := 0
	for _, path := range paths {
		sc, err := scenario.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "INVALID %s: %v\n", path, err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "ok %s (%s, %s mode, %d schemes)\n", path, sc.Name, sc.Mode, len(sc.Schemes))
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "%d of %d scenario file(s) invalid\n", bad, len(paths))
		return ExitFailures
	}
	return ExitOK
}
