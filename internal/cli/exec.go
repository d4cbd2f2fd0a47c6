package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"vswapsim/internal/experiment"
	"vswapsim/internal/serve"
	"vswapsim/internal/swapback"
)

// sink is where run, report and bench put what they produce: stdout,
// teed to the -o file, plus -csv tables. It renders local and served
// results through one text/JSON path, and remembers the first failed
// write of requested output so the command can exit 1 instead of
// stopping halfway.
type sink struct {
	cmd    string
	f      *Flags
	out    io.Writer
	file   *os.File
	stderr io.Writer
	doc    *experiment.JSONDocument
	err    error
}

func newSink(cmd string, f *Flags, stdout, stderr io.Writer) (*sink, error) {
	s := &sink{cmd: cmd, f: f, out: stdout, stderr: stderr}
	if f.Out != "" {
		file, err := os.Create(f.Out)
		if err != nil {
			return nil, err
		}
		s.file, s.out = file, io.MultiWriter(stdout, file)
	}
	if f.CSVDir != "" {
		if err := os.MkdirAll(f.CSVDir, 0o755); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// fail records a failed write; only the first is reported.
func (s *sink) fail(err error) {
	if err != nil && s.err == nil {
		s.err = err
		fmt.Fprintf(s.stderr, "vswapsim %s: %v\n", s.cmd, err)
	}
}

func (s *sink) Write(p []byte) (int, error) {
	_, err := s.out.Write(p)
	s.fail(err)
	return len(p), nil
}

// close closes the -o file and reports whether every write succeeded.
func (s *sink) close() bool {
	if s.file != nil {
		s.fail(s.file.Close())
	}
	return s.err == nil
}

// header starts the text report; via names the daemon for served runs.
func (s *sink) header(via string) {
	if s.f.JSON {
		return
	}
	o := s.f.Opts
	fmt.Fprintf(s, "VSwapper reproduction report (seed=%d scale=%g quick=%v parallel=%d%s)\n\n",
		o.Seed, o.Scale, o.Quick, o.Parallel, via)
	if !o.Faults.Empty() {
		fmt.Fprintf(s, "fault injection active: %s (auditevery=%d)\n\n", o.Faults, o.AuditEvery)
	}
	if o.Swapback != swapback.HDD || o.SwapPolicy != swapback.PolicyWriteback {
		fmt.Fprintf(s, "swap backend: %s (policy %s)\n\n", o.Swapback, o.SwapPolicy)
	}
}

// add renders one experiment's report: text (or, with -json, into the
// document printed at the end) and the -csv tables.
func (s *sink) add(rep *experiment.JSONReport, trailer string) {
	s.doc.Experiments = append(s.doc.Experiments, rep)
	if !s.f.JSON {
		fmt.Fprintf(s, "%s(%s)\n", rep.Render(), trailer)
		if fails := rep.Failures; len(fails) > 0 {
			fmt.Fprintf(s, "\n%d cell(s) FAILED:\n", len(fails))
			for _, f := range fails {
				fmt.Fprintf(s, "  [%s] %s\n    %s\n", f.Kind, f.Label, f.Message)
				if n := len(f.Trace); n > 0 {
					for _, ev := range f.Trace[max(0, n-4):] {
						fmt.Fprintf(s, "    trace %8dns %-9s %s\n", ev.AtNS, ev.Kind, ev.Msg)
					}
				}
			}
		}
		fmt.Fprintln(s)
	}
	if s.f.CSVDir != "" {
		for i, t := range rep.Tables {
			csv := (&experiment.Table{Title: t.Title, Columns: t.Columns, Rows: t.Rows}).CSV()
			name := filepath.Join(s.f.CSVDir, fmt.Sprintf("%s_%d.csv", rep.ID, i))
			s.fail(os.WriteFile(name, []byte(csv), 0o644))
		}
	}
}

// finish ends the report: the total line, or the JSON document.
func (s *sink) finish(total string) {
	if !s.f.JSON {
		fmt.Fprintln(s, total)
		if s.doc.Incomplete {
			fmt.Fprintln(s, "\nRUN INCOMPLETE: canceled before every cell finished")
		}
		return
	}
	data, err := json.MarshalIndent(s.doc, "", "  ")
	if err != nil {
		s.fail(err)
		return
	}
	s.Write(append(data, '\n'))
}

// execute runs `vswapsim run` and `vswapsim report`: locally, or as one
// daemon job per experiment with -server.
func execute(cmd string, f *Flags, stdout, stderr io.Writer) int {
	s, err := newSink(cmd, f, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "vswapsim %s: %v\n", cmd, err)
		return ExitFailures
	}
	// SIGINT/SIGTERM cancel in-flight cells via the watchdog poll; the
	// partial report is still emitted, marked incomplete. stop doubles as
	// the fatal-breach cancel hook.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s.doc = experiment.BuildJSONDocument(f.Opts, nil)
	var code int
	if f.Server != "" {
		s.doc.Parallel = 0 // job documents omit it, see experiment.RunDocument
		code = s.runServed(ctx)
	} else {
		code = s.runLocal(ctx, stop)
	}
	if !s.close() && code == ExitOK {
		code = ExitFailures
	}
	return code
}

// runLocal executes the compiled experiments in this process.
func (s *sink) runLocal(ctx context.Context, stop func()) int {
	f := s.f
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			s.fail(err)
			return ExitFailures
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			s.fail(err)
			return ExitFailures
		}
		defer func() {
			pprof.StopCPUProfile()
			s.fail(file.Close())
		}()
	}
	o := f.Opts
	o.Ctx, o.CancelRun = ctx, stop
	code := ExitOK
	start := time.Now()
	s.header("")
	experiment.RunAll(f.Exps, o, func(r experiment.RunResult) {
		s.add(experiment.BuildJSON(r.Report, r.Runs, r.Failures),
			"generated in "+r.Elapsed.Round(time.Millisecond).String())
		if len(r.Failures) > 0 || r.Report.AssertionFailures > 0 {
			code = ExitFailures
		}
		if f.DiagDir != "" && len(r.Failures) > 0 {
			target := r.Experiment.ID
			if f.Job.Scenario != "" {
				target = f.Args[0]
			}
			paths, err := experiment.WriteDiagBundles(f.DiagDir, "vswapsim "+s.cmd, r.Experiment.ID, target, o, r.Failures)
			s.fail(err)
			if err == nil {
				fmt.Fprintf(s.stderr, "wrote %d crash-diagnostics bundle(s) to %s\n", len(paths), f.DiagDir)
			}
		}
	})
	s.doc.Incomplete = ctx.Err() != nil
	s.finish(fmt.Sprintf("total wall time %v (-parallel %d)", time.Since(start).Round(time.Millisecond), o.Parallel))
	if f.MemProfile != "" {
		runtime.GC()
		file, err := os.Create(f.MemProfile)
		if err == nil {
			err = pprof.WriteHeapProfile(file)
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
		s.fail(err)
	}
	if s.doc.Incomplete {
		return ExitIncomplete
	}
	return code
}

// runServed is the thin -server client: one daemon job per experiment,
// rendered from the returned documents. Repeated runs hit the daemon's
// result cache. The exit code is the worst job exit hint, which follows
// the local exit semantics.
func (s *sink) runServed(ctx context.Context) int {
	f := s.f
	client := serve.NewClient(f.Server)
	code, hits := ExitOK, 0
	start := time.Now()
	s.header(", served by " + f.Server)
	for _, e := range f.Exps {
		req := f.Job
		if req.Scenario == "" {
			req.ID = e.ID
		}
		st, err := client.Run(ctx, req)
		if err != nil {
			s.fail(fmt.Errorf("%s: %w", e.ID, err))
			return ExitFailures
		}
		if st.Error != "" {
			fmt.Fprintf(s.stderr, "vswapsim %s: job %s failed: %s\n", s.cmd, st.JobID, st.Error)
		}
		cache := "miss"
		if st.Cached {
			cache = "hit"
			hits++
		}
		if len(st.Document) > 0 {
			var doc experiment.JSONDocument
			if err := json.Unmarshal(st.Document, &doc); err != nil {
				s.fail(fmt.Errorf("bad document for %s: %w", e.ID, err))
				return ExitFailures
			}
			for _, rep := range doc.Experiments {
				s.add(rep, fmt.Sprintf("served by %s: job %s, cache %s", f.Server, st.JobID, cache))
			}
			s.doc.Incomplete = s.doc.Incomplete || doc.Incomplete
		}
		code = max(code, st.ExitHint)
	}
	s.finish(fmt.Sprintf("total wall time %v (%d of %d from cache)",
		time.Since(start).Round(time.Millisecond), hits, len(f.Exps)))
	return code
}

// benchEntry is one experiment's measurement in the trajectory file.
type benchEntry struct {
	ID          string  `json:"id"`
	Title       string  `json:"title"`
	Fingerprint string  `json:"fingerprint"`
	Iters       int     `json:"iters"`
	BestMS      float64 `json:"best_ms"`
	MeanMS      float64 `json:"mean_ms"`
}

// benchDoc is the trajectory file schema (BENCH_sim.json): the
// environment and options the numbers were taken under, plus one entry
// per experiment in registry order.
type benchDoc struct {
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Seed       uint64       `json:"seed"`
	Scale      float64      `json:"scale"`
	Quick      bool         `json:"quick"`
	Parallel   int          `json:"parallel"`
	Entries    []benchEntry `json:"entries"`
	TotalMS    float64      `json:"total_ms"`
}

// bench implements `vswapsim bench`: run each selected experiment in
// quick mode -iters times, keep the best wall time, and print the
// trajectory document. The fingerprints must agree across iterations; a
// nondeterministic experiment exits 1 without writing anything. Wall
// times vary between machines, the fingerprints must not.
func bench(f *Flags, stdout, stderr io.Writer) int {
	doc := &benchDoc{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       f.Job.Seed,
		Scale:      f.Job.Scale,
		Quick:      true,
		Parallel:   f.Job.Parallel,
	}
	for _, e := range f.Exps {
		entry := benchEntry{ID: e.ID, Title: e.Title, Iters: f.Iters}
		var sum float64
		for i := 0; i < f.Iters; i++ {
			// Clear memoized sweeps so every iteration simulates from scratch.
			experiment.ResetCaches()
			start := time.Now()
			rep := e.Run(f.Opts)
			ms := float64(time.Since(start).Microseconds()) / 1000
			fp := rep.Fingerprint()
			if entry.Fingerprint == "" {
				entry.Fingerprint = fp
			} else if entry.Fingerprint != fp {
				fmt.Fprintf(stderr, "vswapsim bench: %s is nondeterministic: fingerprint %s != %s\n",
					e.ID, fp, entry.Fingerprint)
				return ExitFailures
			}
			if entry.BestMS == 0 || ms < entry.BestMS {
				entry.BestMS = ms
			}
			sum += ms
		}
		entry.MeanMS = round3(sum / float64(f.Iters))
		entry.BestMS = round3(entry.BestMS)
		doc.Entries = append(doc.Entries, entry)
		doc.TotalMS += entry.BestMS
		fmt.Fprintf(stderr, "%-10s best %8.1f ms  mean %8.1f ms  (%s)\n",
			e.ID, entry.BestMS, entry.MeanMS, entry.Fingerprint[:12])
	}
	doc.TotalMS = round3(doc.TotalMS)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "vswapsim bench: %v\n", err)
		return ExitFailures
	}
	// The -o file is created only now, so a failed measurement leaves an
	// existing trajectory untouched.
	s, err := newSink("bench", f, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "vswapsim bench: %v\n", err)
		return ExitFailures
	}
	s.Write(append(data, '\n'))
	if !s.close() {
		return ExitFailures
	}
	if f.Out != "" {
		fmt.Fprintf(stderr, "wrote %s (total best %.1f ms over %d experiments)\n", f.Out, doc.TotalMS, len(doc.Entries))
	}
	return ExitOK
}

// round3 trims to 3 decimals so the checked-in JSON stays readable.
func round3(ms float64) float64 {
	return float64(int64(ms*1000+0.5)) / 1000
}

// serveDaemon implements `vswapsim serve`: run the daemon until a signal
// drains it.
func serveDaemon(f *Flags, stdout, stderr io.Writer) int {
	s, err := serve.New(f.Serve)
	if err != nil {
		fmt.Fprintf(stderr, "vswapsim serve: %v\n", err)
		return ExitFailures
	}
	s.Start()

	ln, err := net.Listen("tcp", f.Addr)
	if err != nil {
		fmt.Fprintf(stderr, "vswapsim serve: %v\n", err)
		return ExitFailures
	}
	httpServer := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()
	fmt.Fprintf(stdout, "vswapsim serve: listening on %s (cache %s, %d workers, queue %d)\n",
		ln.Addr(), f.Serve.CacheDir, f.Serve.Workers, f.Serve.QueueDepth)

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "vswapsim serve: %v\n", err)
		return ExitFailures
	case <-sigCtx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "vswapsim serve: draining (new submissions rejected)...")

	// Close the listener immediately (in the background: live event
	// streams keep Shutdown from returning until their jobs settle), then
	// give in-flight jobs the grace period before forcing them out.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*f.DrainTimeout)
	defer shutCancel()
	go httpServer.Shutdown(shutCtx)

	drainCtx, drainCancel := context.WithTimeout(context.Background(), f.DrainTimeout)
	defer drainCancel()
	clean, err := s.Drain(drainCtx)
	if err != nil {
		fmt.Fprintf(stderr, "vswapsim serve: drain: %v\n", err)
		return ExitFailures
	}
	if !clean {
		fmt.Fprintln(stdout, "vswapsim serve: forced drain: in-flight jobs canceled and persisted for restart recovery")
		return ExitIncomplete
	}
	fmt.Fprintln(stdout, "vswapsim serve: clean drain, all accepted jobs settled")
	return ExitOK
}
