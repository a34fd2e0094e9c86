package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricSpec names one reported metric. Moves, for a per-layer metric, is
// the end-to-end metric and workload it should move; it is printed beside
// the value in traced runs so every layer number carries its prediction.
type metricSpec struct {
	Name  string
	Unit  string
	Moves string
}

// endToEnd lists the metrics every untraced run reports, in output order.
var endToEnd = []metricSpec{
	{Name: "minstr_per_s", Unit: "Minstr/s"},
	{Name: "job_p50_ms", Unit: "ms"},
	{Name: "job_p90_ms", Unit: "ms"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "setup_s", Unit: "s"},
}

const (
	movesSetup    = "setup_s on every workload"
	movesFig10    = "fig10-sweep/minstr_per_s"
	movesFig10Lat = "fig10-sweep/minstr_per_s and fig10-sweep/job_p50_ms"
	movesFig10Mem = "fig10-sweep/peak_rss_mb and fig10-sweep/minstr_per_s"
	movesModel    = "none: deterministic model output, identical under any simulator-only change"
	movesSampled  = "sampled-long/minstr_per_s and sampled-long/job_p50_ms"
	movesServed   = "jobs-served/job_p50_ms and jobs-served/job_p90_ms"
	movesCluster  = "cluster job latency, replayed in the jobs-served traced run (no end-to-end cluster workload)"
	movesAll      = "every workload"
)

// perLayer lists the metrics every traced run reports. A layer that does
// not run in a workload reports 0 there: it did no work.
var perLayer = []metricSpec{
	{"workload.gen_ms", "ms", movesSetup},
	{"pipeline.construct_ms_per_run", "ms", movesFig10Lat},
	{"pipeline.construct_share", "frac", movesFig10Lat},
	{"pipeline.exec_minstr_per_s", "Minstr/s", movesFig10Lat},
	{"pipeline.allocs_per_run", "count", movesFig10Mem},
	{"pipeline.alloc_mb_per_run", "MB", movesFig10Mem},
	{"pipeline.sim_cycles_total", "count", movesModel},
	{"pipeline.ipc_geomean", "instr/cycle", movesModel},
	{"core.rename_ns_op", "ns", movesFig10},
	{"bpred.tage_predict_ns_op", "ns", movesFig10},
	{"cache.access_ns_op", "ns", movesFig10},
	{"pipeline.sched_ilp_ns_op", "ns", movesFig10},
	{"pipeline.sched_chain_ns_op", "ns", movesFig10},
	{"pipeline.sched_stores_ns_op", "ns", movesFig10},
	{"batch.batched_run_share", "frac", movesFig10},
	{"sweep.busy_frac", "frac", movesFig10},
	{"sweep.engine_overhead_ms", "ms", movesFig10},
	{"sweep.finalize_ms", "ms", movesFig10},
	{"sweep.journal_flushes", "count", movesFig10},
	{"checkpoint.run_ms_p50", "ms", movesSampled},
	{"checkpoint.detail_instr_share", "frac", movesSampled},
	{"checkpoint.windows_per_run", "count", movesSampled},
	{"checkpoint.ff_minstr_per_s", "Minstr/s", movesSampled},
	{"experiments.program_cache_hit_frac", "frac", movesServed},
	{"server.submit_ms_p50", "ms", movesServed},
	{"server.queue_wait_ms_p50", "ms", movesServed},
	{"server.exec_ms_p50", "ms", movesServed},
	{"server.manifest_fetch_ms_p50", "ms", movesServed},
	{"server.cache_hit_frac", "frac", movesServed},
	{"server.rate_limited", "count", movesServed},
	{"server.overhead_pct", "%", movesServed},
	{"cluster.submit_ms_p50", "ms", movesCluster},
	{"cluster.dispatch_wait_ms_p50", "ms", movesCluster},
	{"cluster.empty_poll_frac", "frac", movesCluster},
	{"cluster.upload_ms_p50", "ms", movesCluster},
	{"cluster.units_stolen", "count", movesCluster},
	{"cluster.overhead_pct", "%", movesCluster},
	{"process.cpu_s_per_minstr", "s/Minstr", movesAll},
	{"process.gc_count", "count", movesAll},
	{"process.os_threads", "count", movesAll},
	{"process.cold_pass_penalty_pct", "%", movesSetup},
	{"process.tracing_overhead_pct", "%", movesAll},
}

// tailPercentile returns the highest whole percentile p that still has at
// least minBeyond of n samples above it, so a reported tail never rests
// on a handful of outliers. ok is false when n is too small for any tail.
func tailPercentile(n, minBeyond int) (p int, ok bool) {
	for p = 99; p >= 50; p-- {
		if n*(100-p) >= minBeyond*100 {
			return p, true
		}
	}
	return 0, false
}

// tailMetricName is the name job latency's tail is reported under: p90
// when the run has at least 100 jobs, else the highest percentile with at
// least ten samples beyond it (which then carries its own name).
func tailMetricName(n int) (name string, p int, ok bool) {
	p, ok = tailPercentile(n, 10)
	if !ok {
		return "", 0, false
	}
	if p > 90 {
		p = 90
	}
	return fmt.Sprintf("job_p%d_ms", p), p, true
}

// percentile returns the nearest-rank p-th percentile of xs (unsorted).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a / b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var l float64
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

// outcome is what one workload run produced: the verification tally and
// the measured metrics by name.
type outcome struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
}

// jobTail adds the median and tail latency of lat (ms) to o.
func (o *outcome) jobTail(lat []float64) error {
	name, p, ok := tailMetricName(len(lat))
	if !ok {
		return fmt.Errorf("only %d jobs completed: too few for any tail percentile", len(lat))
	}
	o.Metrics["job_p50_ms"] = median(lat)
	o.Metrics[name] = percentile(lat, float64(p))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the run's result. A traced run first prints one line per
// per-layer metric with the end-to-end metric it should move; the last
// line is always the single JSON result object.
func emit(w io.Writer, workload string, o *outcome, traced bool) error {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	r := report{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := o.Metrics[s.Name]
		if !ok && !traced {
			return fmt.Errorf("workload %s produced no %s", workload, s.Name)
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		if traced {
			fmt.Fprintf(w, "layer %-36s %14.6g %-12s workload=%s moves: %s\n", s.Name, v, s.Unit, workload, s.Moves)
		} else {
			fmt.Fprintf(w, "%-14s %14.6g %s\n", s.Name, v, s.Unit)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
