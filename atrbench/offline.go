package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"atr/internal/checkpoint"
	"atr/internal/config"
	"atr/internal/pipeline"
	"atr/internal/program"
	"atr/internal/sweep"
	"atr/internal/workload"
)

const (
	fig10Instr   = 40_000
	fig10Warm    = 5_000
	sampledInstr = 2_000_000
	sampledWarm  = 1_000_000
	sampledPlan  = "systematic:100000/2000/500"
)

// offlineWorkload is a grid run repeatedly through sweep.Engine, and a
// warm-up grid whose unit keys the timed grid never uses.
type offlineWorkload struct {
	timed, warm sweep.Grid
}

// fig10Workload is the paper's Figure 10 grid. Its inputs are fixed by the
// paper; the seed picks only the warm-up grid's register-file sizes.
func fig10Workload(seed uint64) offlineWorkload {
	r := rng{s: seed}
	warm := sweep.Fig10Grid(fig10Warm)
	warm.Name = "fig10-warmup"
	warm.PhysRegs = pick(&r, []int{96, 128, 160, 192}, 2)
	return offlineWorkload{timed: sweep.Fig10Grid(fig10Instr), warm: warm}
}

// sampledWorkload is one long sampled unit per profile, every profile at
// one seeded register-file size under one seeded scheme, so a seed changes
// the machine but not the program mix.
func sampledWorkload(seed uint64) offlineWorkload {
	r := rng{s: seed}
	timed := sweep.Grid{
		Name: "sampled-long", Instr: sampledInstr, Base: config.GoldenCove(),
		Profiles: workload.Profiles(), PhysRegs: pick(&r, []int{64, 128, 224}, 1),
		Schemes: pick(&r, config.Schemes(), 1), SampleModes: []string{sampledPlan},
	}
	warm := timed
	warm.Name, warm.Instr = "sampled-warmup", sampledWarm
	warm.Profiles = pick(&r, workload.Profiles(), 2)
	warm.PhysRegs = pick(&r, []int{96, 160}, 1)
	return offlineWorkload{timed: timed, warm: warm}
}

// generateAll builds every profile's program image and returns the time
// it took in ms.
func generateAll() float64 {
	t0 := time.Now()
	for _, p := range workload.Profiles() {
		p.Generate()
	}
	return ms(time.Since(t0))
}

// pass is one timed Execute of the grid.
type pass struct {
	m        *sweep.Manifest
	wall     time.Duration
	info     map[string]any // sweep.Engine.Info, read by JSON field name
	finalize time.Duration
}

// segment is one timed phase: passes, per-unit latencies and the process
// counters it was charged with.
type segment struct {
	passes     []pass
	lat        []float64
	start, end procSample
}

func (s *segment) wall() time.Duration { return s.end.at.Sub(s.start.at) }

func runOffline(e *env, w offlineWorkload) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{Metrics: map[string]float64{}}

	err := e.setup(o, func() (float64, error) {
		w0 := time.Now()
		_, err := sweep.New(sweep.Options{Workers: simWorkers}).Execute(ctx, w.warm, nil)
		return time.Since(w0).Seconds(), err
	}, nil)
	if err != nil {
		return nil, err
	}

	var segs []*segment
	rss := startRSS()
	for _, sg := range e.segments() {
		seg, err := runPasses(ctx, e, w.timed, sg)
		if err != nil {
			rss.finish()
			return nil, err
		}
		segs = append(segs, seg)
	}
	o.Metrics["peak_rss_mb"] = rss.finish()

	ref, probe, err := reference(w.timed, e.traced)
	if err != nil {
		return nil, err
	}
	logDigest(e.log, w.timed.Name, e.seed, []*sweep.Manifest{ref})
	var rates []float64
	for _, seg := range segs {
		var committed uint64
		for _, p := range seg.passes {
			o.Attempted += len(p.m.Runs)
			bad := manifestFailures(p.m, ref)
			o.Failed += bad
			if bad == 0 {
				committed += p.m.Totals.Committed
			}
		}
		rates = append(rates, seg.rate(o, committed))
	}
	last := segs[len(segs)-1]
	if err := o.jobTail(last.lat); err != nil && !e.traced {
		return nil, err
	}
	tracingOverhead(o, rates)
	if e.traced {
		offlineLayers(o, w.timed, last, ref, probe)
	}
	return o, nil
}

// rate sets the segment's throughput and process metrics on o and returns
// the throughput; a later segment overwrites an earlier one, so o keeps
// the last (traced) one.
func (s *segment) rate(o *outcome, committed uint64) float64 {
	minstr := float64(committed) / 1e6
	rate := ratio(minstr, s.wall().Seconds())
	o.Metrics["minstr_per_s"] = rate
	o.Metrics["process.cpu_s_per_minstr"] = ratio((s.end.cpu - s.start.cpu).Seconds(), minstr)
	o.Metrics["process.gc_count"] = float64(s.end.gc - s.start.gc)
	return rate
}

// runPasses executes the grid through a fresh production engine, pass
// after pass, until the budget is spent and at least minJobs units ran.
func runPasses(ctx context.Context, e *env, g sweep.Grid, sg phaseBudget) (*segment, error) {
	seg := &segment{start: sampleProc()}
	var mu sync.Mutex
	for n := 0; ; n++ {
		if time.Since(seg.start.at) >= sg.budget && n*len(g.Units()) >= sg.minJobs {
			break
		}
		jf, err := os.Create(filepath.Join(e.dir, fmt.Sprintf("journal-%d.jsonl", n)))
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("pass%d", n)
		eng := sweep.New(sweep.Options{
			Workers: simWorkers, Retries: 1, Backoff: 100 * time.Millisecond, Journal: jf,
			OnRun: func(u sweep.Unit, worker int, start time.Time, dur time.Duration, errMsg string) {
				mu.Lock()
				seg.lat = append(seg.lat, ms(dur))
				mu.Unlock()
				sg.tr.add(id, "sweep.unit", "sweep.execute", start, dur)
			},
		})
		t0 := time.Now()
		m, err := eng.Execute(ctx, g, nil)
		wall := time.Since(t0)
		if cerr := jf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", g.Name, n, err)
		}
		sg.tr.add(id, "sweep.execute", "", t0, wall)
		p := pass{m: m, wall: wall}
		if sg.tr != nil {
			b, _ := json.Marshal(eng.Info()) // SweepInfo always marshals
			_ = json.Unmarshal(b, &p.info)
			f0 := time.Now()
			if _, err := sweep.FinalizeManifest(g, m.Runs); err != nil {
				return nil, err
			}
			p.finalize = time.Since(f0)
		}
		seg.passes = append(seg.passes, p)
	}
	seg.end = sampleProc()
	return seg, nil
}

// refProbe is what the traced reference pass measured about the calls it
// made into the pipeline and checkpoint layers.
type refProbe struct {
	construct, exec []float64 // ms per exact run
	sampled         []float64 // ms per checkpoint.Run
	allocs, bytes   float64   // per run
	est             []checkpoint.Estimate
	progs           map[string]*program.Program
}

// reference computes every unit of g by calling the simulator directly —
// pipeline.NewWithScheduler + Run, or checkpoint.Run for a sampled unit —
// outside the sweep engine and its batching, and merges the records into
// the manifest every timed pass must equal.
func reference(g sweep.Grid, traced bool) (*sweep.Manifest, *refProbe, error) {
	units := g.Units()
	pr := &refProbe{progs: map[string]*program.Program{}}
	for _, p := range g.Profiles {
		pr.progs[p.Name] = p.Generate()
	}
	recs := make([]sweep.Record, len(units))
	construct := make([]float64, len(units))
	exec := make([]float64, len(units))
	ests := make([]*checkpoint.Estimate, len(units))
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	next := make(chan int)
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				u := units[i]
				prog := pr.progs[u.Profile.Name]
				var res pipeline.Result
				if u.Sample != "" {
					plan, err := checkpoint.ParseMode(u.Sample)
					if err != nil {
						errMu.Lock()
						firstErr = err
						errMu.Unlock()
						continue
					}
					t0 := time.Now()
					est := checkpoint.Run(u.Config, prog, pipeline.SchedulerEvent, g.Instr, plan)
					exec[i] = ms(time.Since(t0))
					res, ests[i] = est.Result, &est
				} else {
					t0 := time.Now()
					cpu := pipeline.NewWithScheduler(u.Config, prog, pipeline.SchedulerEvent)
					t1 := time.Now()
					res = cpu.Run(g.Instr)
					construct[i], exec[i] = ms(t1.Sub(t0)), ms(time.Since(t1))
				}
				recs[i] = sweep.Record{
					Key: u.Key, Seq: u.Seq, Bench: u.Profile.Name,
					Scheme: u.Config.Scheme.String(), PhysRegs: u.Config.PhysRegs,
					Sample: u.Sample, Attempts: 1, Result: res,
				}
			}
		}()
	}
	for i := range units {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if traced {
		runtime.ReadMemStats(&m1)
		pr.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(units))
		pr.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(units))
	}
	for i := range units {
		if ests[i] != nil {
			pr.sampled = append(pr.sampled, exec[i])
			pr.est = append(pr.est, *ests[i])
		} else {
			pr.construct = append(pr.construct, construct[i])
			pr.exec = append(pr.exec, exec[i])
		}
	}
	m, err := sweep.FinalizeManifest(g, recs)
	return m, pr, err
}

// offlineLayers derives the per-layer metrics of an offline workload from
// the traced segment and the reference probe.
func offlineLayers(o *outcome, g sweep.Grid, seg *segment, ref *sweep.Manifest, pr *refProbe) {
	modelLayers(o, ref.Runs)
	var batched, done, busyFrac, overhead, flushes, finalize []float64
	for _, p := range seg.passes {
		batched = append(batched, num(p.info["batched_runs"]))
		done = append(done, num(p.info["done"]))
		flushes = append(flushes, num(p.info["journal_flushes"]))
		var busy, maxBusy float64
		shards, _ := p.info["shards"].([]any)
		for _, s := range shards {
			b := num(s.(map[string]any)["busy_seconds"])
			busy += b
			maxBusy = max(maxBusy, b)
		}
		wall := p.wall.Seconds()
		busyFrac = append(busyFrac, busy/(float64(simWorkers)*wall))
		overhead = append(overhead, 1000*(wall-maxBusy))
		finalize = append(finalize, ms(p.finalize))
	}
	o.Metrics["batch.batched_run_share"] = ratio(sum(batched), sum(done))
	o.Metrics["sweep.busy_frac"] = median(busyFrac)
	o.Metrics["sweep.engine_overhead_ms"] = median(overhead)
	o.Metrics["sweep.finalize_ms"] = median(finalize)
	o.Metrics["sweep.journal_flushes"] = median(flushes)

	if len(pr.exec) > 0 {
		var committed uint64
		for _, r := range ref.Runs {
			if r.Sample == "" {
				committed += r.Result.Committed
			}
		}
		c, x := sum(pr.construct), sum(pr.exec)
		o.Metrics["pipeline.construct_ms_per_run"] = c / float64(len(pr.construct))
		o.Metrics["pipeline.construct_share"] = c / (c + x)
		o.Metrics["pipeline.exec_minstr_per_s"] = float64(committed) / 1e6 / (x / 1000)
		o.Metrics["pipeline.allocs_per_run"] = pr.allocs
		o.Metrics["pipeline.alloc_mb_per_run"] = pr.bytes / (1 << 20)
	}
	if len(pr.est) > 0 {
		var detail, total, windows float64
		for _, est := range pr.est {
			detail += float64(est.DetailInstr)
			total += float64(est.TotalInstr)
			windows += float64(est.Windows)
		}
		o.Metrics["checkpoint.run_ms_p50"] = median(pr.sampled)
		o.Metrics["checkpoint.detail_instr_share"] = detail / total
		o.Metrics["checkpoint.windows_per_run"] = windows / float64(len(pr.est))
		o.Metrics["checkpoint.ff_minstr_per_s"] = emulatorRate(g, pr)
	}
}

// emulatorRate times the public functional emulator over the instruction
// count the sampled runs fast-forwarded, on the first four profiles.
func emulatorRate(g sweep.Grid, pr *refProbe) float64 {
	var steps uint64
	var d time.Duration
	for i, p := range g.Profiles {
		if i == 4 {
			break
		}
		em := program.NewEmulator(pr.progs[p.Name])
		var rec program.Record
		t0 := time.Now()
		for n := pr.est[0].FFInstr; n > 0 && em.StepInto(&rec); n-- {
			steps++
		}
		d += time.Since(t0)
	}
	return ratio(float64(steps)/1e6, d.Seconds())
}

// modelLayers sets the deterministic model outputs over a fixed set of
// verified records.
func modelLayers(o *outcome, runs []sweep.Record) {
	var cycles float64
	var ipc []float64
	for _, r := range runs {
		cycles += float64(r.Result.Cycles)
		if r.Result.IPC > 0 {
			ipc = append(ipc, r.Result.IPC)
		}
	}
	o.Metrics["pipeline.sim_cycles_total"] = cycles
	o.Metrics["pipeline.ipc_geomean"] = geomean(ipc)
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}
