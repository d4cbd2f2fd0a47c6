// Command vswapsim runs the paper's experiments — hand-coded registry
// entries or declarative YAML scenarios — and serves them over HTTP.
//
// Usage:
//
//	vswapsim list
//	vswapsim run <id|scenario.yaml> [flags]
//	vswapsim report [-only ids] [-csv dir] [flags]
//	vswapsim validate <scenario.yaml>...
//	vswapsim bench [-iters N] [-only ids] [flags]
//	vswapsim serve [flags]
//
// run executes one experiment: a target ending in .yaml or .yml is a
// declarative scenario (see internal/scenario and EXPERIMENTS.md), anything
// else a registry id; a scenario mirroring a registry figure produces a
// byte-identical report. report runs the whole registry, or the -only
// ids, and is the source of EXPERIMENTS.md's measured numbers. validate
// parses scenario files without running them, with file:line:col errors.
// bench times quick-mode registry runs for BENCH_sim.json (see
// scripts/bench.sh). serve is the HTTP daemon: a bounded job queue, a
// content-addressed result cache, health and metrics endpoints, and a
// drain that persists unfinished jobs for restart recovery.
//
// run and report share one flag set. -json prints the machine-readable
// report instead of the text tables, -o FILE tees stdout to a file, and
// -server URL submits the run to a `vswapsim serve` daemon instead of
// executing it locally; the output is rendered the same way. Run
// `vswapsim <command> -h` for the flags of one command.
//
// Exit codes: 0 success, 1 failed cells, failed scenario assertions, a
// failed output write or another runtime error, 2 usage, 3 incomplete
// (canceled by SIGINT or a fatal wall-clock breach; for serve, a forced
// drain).
package main

import (
	"os"

	"vswapsim/internal/cli"
)

func main() {
	os.Exit(cli.Main(os.Args[1:], os.Stdout, os.Stderr))
}
