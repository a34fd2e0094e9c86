// Command atrbench is the repository's end-to-end benchmark. It runs one
// workload in this process — the Fig 10 sweep offline, a job stream served
// by atrd's server (whose traced run also replays it on a coordinator with
// two workers), or long sampled runs — checks every result against an
// offline reference, and prints the metrics as one JSON object on its
// last output line.
//
//	atrbench -workload fig10-sweep -seed 1 -seconds 10 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 reports the per-layer
// metrics and writes the spans it recorded beside the scratch directory.
// README.md in this directory maps each per-layer metric to the
// end-to-end metric it should move.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// simWorkers bounds simulation goroutines at the box's two cores: more
// simulation threads than cores turns scheduler contention into noise.
var simWorkers = min(2, runtime.NumCPU())

const (
	setupRepeats = 5   // set-ups per run; setup_s is their median
	minJobs      = 100 // jobs per timed phase, so the p90 has ten samples beyond it
)

var workloads = map[string]func(*env) (*outcome, error){
	"fig10-sweep":  func(e *env) (*outcome, error) { return runOffline(e, fig10Workload(e.seed)) },
	"sampled-long": func(e *env) (*outcome, error) { return runOffline(e, sampledWorkload(e.seed)) },
	"jobs-served":  runServed,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 15, "length of the timed phase")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	dir := fs.String("dir", ".bench_build", "scratch directory for state dirs, journals and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "atrbench: need -workload (%s), -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "atrbench:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "atrbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1, dir: runDir, log: stderr}
	if e.traced {
		e.tr = newTracer()
	}
	o, err := w(e)
	if err != nil {
		fmt.Fprintf(stderr, "atrbench: %s: %v\n", *name, err)
		return 1
	}
	o.Metrics["process.os_threads"] = osThreads()
	if e.traced {
		kernelLayers(o)
	}
	if e.traced {
		path := filepath.Join(*dir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "atrbench: spans:", err)
			return 1
		}
	}
	if err := emit(stdout, *name, o, e.traced); err != nil {
		fmt.Fprintln(stderr, "atrbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// env is one benchmark run's settings.
type env struct {
	seed   uint64
	budget time.Duration
	traced bool
	dir    string
	tr     *tracer // nil unless traced
	log    io.Writer
}

// phaseBudget is one timed phase: how long it runs, how many jobs it must
// complete at least, and the tracer it records into (nil: tracing off).
type phaseBudget struct {
	budget  time.Duration
	minJobs int
	tr      *tracer
}

// segments lists the timed phases of a run. An untraced run has one. A
// traced run splits the budget into an untraced half and a traced half,
// so the tracing overhead is measured in the same process.
func (e *env) segments() []phaseBudget {
	if !e.traced {
		return []phaseBudget{{budget: e.budget, minJobs: minJobs}}
	}
	half := e.budget / 2
	return []phaseBudget{{budget: half, minJobs: 1}, {budget: half, minJobs: 1, tr: e.tr}}
}

// setup runs the workload's set-up setupRepeats times — program generation
// then warm, which starts any services and runs one untimed warm-up pass
// and returns that pass's seconds — and records setup_s as the median.
// Repeating it makes setup_s a median rather than one jittery sample, and
// the first warm-up against the later ones is the cold-pass penalty.
// stop, if non-nil, tears down the previous set-up's services before the
// next one starts, outside the timed window; the last set-up stays up.
func (e *env) setup(o *outcome, warm func() (float64, error), stop func() error) error {
	var setups, warms, gens []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && stop != nil {
			if err := stop(); err != nil {
				return fmt.Errorf("set-up %d teardown: %w", i, err)
			}
		}
		t0 := time.Now()
		gens = append(gens, generateAll())
		wsec, err := warm()
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		warms = append(warms, wsec)
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.Metrics["setup_s"] = median(setups)
	o.Metrics["workload.gen_ms"] = median(gens)
	o.Metrics["process.cold_pass_penalty_pct"] = 100 * (ratio(warms[0], median(warms[1:])) - 1)
	return nil
}

// tracingOverhead compares the untraced and traced halves of a traced run.
func tracingOverhead(o *outcome, rates []float64) {
	if len(rates) == 2 {
		o.Metrics["process.tracing_overhead_pct"] = 100 * (ratio(rates[0], rates[1]) - 1)
	}
}
