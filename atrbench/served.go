package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atr/internal/cluster"
	"atr/internal/server"
	"atr/internal/sweep"
)

const (
	clients    = 2   // closed-loop clients, one HTTP connection each
	modelJobs  = 50  // stream prefix the deterministic model outputs cover
	replayJobs = 100 // served jobs the traced run replays on the cluster plane
)

// service is one in-process job plane listening on loopback: atrd's
// server.Server, or a cluster.Coordinator with two cluster.Workers.
type service struct {
	srv     *server.Server
	coord   *cluster.Coordinator
	stopWk  context.CancelFunc
	wkDone  sync.WaitGroup
	httpSrv *http.Server
	url     string
	obs     *observer
}

// startService starts a job plane over stateDir. A restarted plane
// recovers the jobs a previous one left there.
func startService(stateDir string, clustered bool) (*service, error) {
	s := &service{obs: &observer{}}
	var h http.Handler
	if clustered {
		c, err := cluster.NewCoordinator(cluster.Options{
			StateDir: stateDir, DefaultInstr: 40_000, CacheCap: 65536,
			Rate: 0, // never refuse the benchmark's clients; every other setting is atrd's default
		})
		if err != nil {
			return nil, err
		}
		s.coord, h = c, c
	} else {
		srv, err := server.New(server.Options{
			StateDir: stateDir, DefaultInstr: 40_000, SimWorkers: 1, JobWorkers: 2,
			QueueDepth: 64, Rate: -1, Burst: 10, CacheCap: 65536,
			Retries: 1, Backoff: 100 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		s.srv, h = srv, srv
	}
	s.obs.next = h
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.obs}
	go s.httpSrv.Serve(ln) // returns ErrServerClosed once stop shuts it down
	if clustered {
		ctx, cancel := context.WithCancel(context.Background())
		s.stopWk = cancel
		for i := 1; i <= simWorkers; i++ {
			w := cluster.NewWorker(cluster.WorkerOptions{
				Coordinator: s.url, Name: fmt.Sprintf("w%d", i), SimWorkers: 1,
				Retries: 1, Backoff: 100 * time.Millisecond, PollInterval: 250 * time.Millisecond,
			})
			s.wkDone.Add(1)
			go func() {
				defer s.wkDone.Done()
				_ = w.Run(ctx) // returns ctx's error once stop cancels it
			}()
		}
		// Wait for every worker to register and finish its first, empty
		// poll. It then sleeps a full poll interval, so each set-up's first
		// warm-up job meets sleeping workers rather than racing their first
		// poll, which made set-up time jump by one interval at random.
		for deadline := time.Now().Add(10 * time.Second); len(s.coord.Fleet().Workers) < simWorkers ||
			s.obs.allPolls.Load() < int64(simWorkers); {
			if time.Now().After(deadline) {
				s.stop()
				return nil, fmt.Errorf("workers did not register and poll within 10s")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return s, nil
}

// stop shuts the plane down and waits for every goroutine it started.
func (s *service) stop() error {
	if s.stopWk != nil {
		s.stopWk()
		s.wkDone.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	if s.srv != nil {
		if e := s.srv.Shutdown(ctx); err == nil {
			err = e
		}
	}
	if s.coord != nil {
		s.coord.Close()
	}
	return err
}

// observer sits in front of the plane's handler. It counts answered
// worker polls; with a tracer installed it also records the worker
// protocol — every poll and whether it leased units, and how long each
// result upload took — as spans.
type observer struct {
	next       http.Handler
	allPolls   atomic.Int64
	tr         atomic.Pointer[tracer]
	mu         sync.Mutex
	polls      int
	emptyPolls int
	firstLease map[string]time.Time
}

func (o *observer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/cluster/v1/poll" {
		defer o.allPolls.Add(1)
	}
	tr := o.tr.Load()
	if tr == nil || r.Method != http.MethodPost {
		o.next.ServeHTTP(w, r)
		return
	}
	switch r.URL.Path {
	case "/cluster/v1/poll":
		rec := &recorder{ResponseWriter: w}
		t0 := time.Now()
		o.next.ServeHTTP(rec, r)
		tr.add("fleet", "cluster.poll", "", t0, time.Since(t0))
		var resp struct {
			Assignments []struct{ Job string } `json:"assignments"`
		}
		_ = json.Unmarshal(rec.body.Bytes(), &resp) // a non-JSON reply leases nothing
		o.mu.Lock()
		o.polls++
		if len(resp.Assignments) == 0 {
			o.emptyPolls++
		}
		for _, a := range resp.Assignments {
			if _, ok := o.firstLease[a.Job]; !ok {
				o.firstLease[a.Job] = t0
			}
		}
		o.mu.Unlock()
	case "/cluster/v1/results":
		t0 := time.Now()
		o.next.ServeHTTP(w, r)
		tr.add("fleet", "cluster.upload", "", t0, time.Since(t0))
	default:
		o.next.ServeHTTP(w, r)
	}
}

// trace starts observing into tr with fresh counters, or stops (tr nil)
// and keeps the counters for reading.
func (o *observer) trace(tr *tracer) {
	if tr != nil {
		o.mu.Lock()
		o.polls, o.emptyPolls, o.firstLease = 0, 0, map[string]time.Time{}
		o.mu.Unlock()
	}
	o.tr.Store(tr)
}

type recorder struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (r *recorder) Write(b []byte) (int, error) {
	r.body.Write(b)
	return r.ResponseWriter.Write(b)
}

// client submits jobs over at most `clients` loopback connections. A
// request that outlives the timeout fails its job instead of hanging the
// run; jobs here take well under a second.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// submit runs one job end to end: POST with ?watch=1, follow the event
// stream to a terminal state, then fetch the manifest.
func (c *client) submit(idx int, spec server.JobSpec) *jobResult {
	j := &jobResult{idx: idx, t0: time.Now()}
	body, _ := json.Marshal(spec) // a JobSpec always marshals
	resp, err := c.http.Post(c.base+"/v1/jobs?watch=1", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	j.submitted, j.code = time.Now(), resp.StatusCode
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return j
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Type != "status" {
			continue
		}
		j.id = ev.Job
		if ev.State == server.StateRunning && j.running.IsZero() {
			j.running = time.Now()
		}
		if terminal(ev.State) {
			j.state, j.finished = ev.State, time.Now()
			break
		}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if j.state != server.StateDone {
		if j.state == "" {
			j.err = fmt.Errorf("job %d: event stream ended without a terminal state", idx)
		}
		return j
	}
	if j.running.IsZero() {
		j.running = j.finished // satisfied from the cache before it ever ran
	}
	mresp, err := c.http.Get(c.base + "/v1/jobs/" + j.id + "/manifest")
	if err != nil {
		j.err = err
		return j
	}
	j.manifest, err = io.ReadAll(mresp.Body)
	mresp.Body.Close()
	j.fetched = time.Now()
	if err == nil && mresp.StatusCode != http.StatusOK {
		err = fmt.Errorf("manifest of %s: HTTP %d", j.id, mresp.StatusCode)
	}
	j.err = err
	return j
}

func terminal(state string) bool {
	switch state {
	case server.StateDone, server.StateFailed, server.StateCancelled, server.StateInterrupted:
		return true
	}
	return false
}

// latency is the job's wall time as the user saw it: submission to
// manifest in hand, or to the point where it failed.
func (j *jobResult) latency() float64 {
	end := j.t0
	for _, t := range []time.Time{j.submitted, j.finished, j.fetched} {
		if t.After(end) {
			end = t
		}
	}
	return ms(end.Sub(j.t0))
}

// closedLoop runs jobs from the stream on `clients` closed-loop clients,
// starting at index from, until the budget is spent and at least minJobs
// finished (or exactly count jobs, when count > 0).
func closedLoop(c *client, stream *jobStream, from int, pb phaseBudget, count int) []*jobResult {
	var (
		mu   sync.Mutex
		next = from
		out  []*jobResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				n := next - from
				stop := (count > 0 && n >= count) ||
					(count == 0 && time.Since(start) >= pb.budget && len(out) >= pb.minJobs)
				if stop {
					mu.Unlock()
					return
				}
				idx := next
				next++
				spec, _ := stream.job(idx)
				mu.Unlock()
				j := c.submit(idx, spec)
				mu.Lock()
				out = append(out, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// refEntry is the offline reference for one job spec.
type refEntry struct {
	m    *sweep.Manifest
	wall time.Duration // offline Execute on one simulation worker
	err  error
}

// references executes every distinct spec offline through a fresh
// sweep.Engine with one worker (what each served job gets), two specs at a
// time.
func references(specs []server.JobSpec) map[string]*refEntry {
	refs := map[string]*refEntry{}
	var todo []server.JobSpec
	for _, s := range specs {
		if k := specKey(s); refs[k] == nil {
			refs[k] = &refEntry{}
			todo = append(todo, s)
		}
	}
	var wg sync.WaitGroup
	next := make(chan server.JobSpec)
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				r := refs[specKey(s)] // written only by this goroutine
				g, err := s.ResolveGrid(40_000)
				if err != nil {
					r.err = err
					continue
				}
				t0 := time.Now()
				r.m, r.err = sweep.New(sweep.Options{Workers: 1}).Execute(context.Background(), g, nil)
				r.wall = time.Since(t0)
			}
		}()
	}
	for _, s := range todo {
		next <- s
	}
	close(next)
	wg.Wait()
	return refs
}

// servedSeg is one timed phase of a served workload.
type servedSeg struct {
	jobs       []*jobResult
	start, end procSample
	before     obsCounters
	after      obsCounters
}

// obsCounters are the server's own counters, read at segment boundaries.
type obsCounters struct {
	cacheHits, cacheMisses, rateLimited float64
}

func (s *service) counters() obsCounters {
	m := s.srv.Metrics()
	return obsCounters{float64(m.CacheHits), float64(m.CacheMisses), float64(m.RateLimited)}
}

// scrape reads one unlabelled sample from the plane's Prometheus /metrics.
func scrape(c *client, base, name string) float64 {
	resp, err := c.http.Get(base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

func runServed(e *env) (*outcome, error) {
	o := &outcome{Metrics: map[string]float64{}}
	stateDir := filepath.Join(e.dir, "state")
	warm := warmJobs(e.seed)
	var svc *service
	var c *client
	rep := 0
	err := e.setup(o, func() (float64, error) {
		var err error
		if svc, err = startService(stateDir, false); err != nil {
			return 0, err
		}
		c = newClient(svc.url)
		t0 := time.Now()
		jobs := closedLoop(c, warm, rep*clients, phaseBudget{}, clients)
		rep++
		for _, j := range jobs {
			if j.failed() {
				return 0, fmt.Errorf("warm-up job %d: state %q code %d: %v", j.idx, j.state, j.code, j.err)
			}
		}
		return time.Since(t0).Seconds(), nil
	}, func() error {
		c.http.CloseIdleConnections()
		return svc.stop()
	})
	if err != nil {
		if svc != nil {
			svc.stop()
		}
		return nil, err
	}
	defer func() {
		c.http.CloseIdleConnections()
		svc.stop()
	}()

	stream := newJobStream(e.seed, jobRegs)
	var segs []*servedSeg
	from := 0
	rss := startRSS()
	for _, pb := range e.segments() {
		seg := &servedSeg{before: svc.counters()}
		svc.obs.trace(pb.tr)
		seg.start = sampleProc()
		seg.jobs = closedLoop(c, stream, from, pb, 0)
		seg.end = sampleProc()
		svc.obs.trace(nil)
		seg.after = svc.counters()
		from += len(seg.jobs)
		segs = append(segs, seg)
		if pb.tr != nil {
			recordJobSpans(pb.tr, seg.jobs, "server")
		}
	}
	o.Metrics["peak_rss_mb"] = rss.finish()

	// Output check: every manifest against an offline engine run of its spec.
	var specs []server.JobSpec
	for i := 0; i < max(from, modelJobs); i++ {
		s, _ := stream.job(i)
		specs = append(specs, s)
	}
	refs := references(specs)
	for k, ref := range refs {
		if ref.err != nil {
			return nil, fmt.Errorf("offline reference for %s: %w", k, ref.err)
		}
	}
	var prefix []*sweep.Manifest
	for _, s := range specs[:modelJobs] {
		prefix = append(prefix, refs[specKey(s)].m)
	}
	logDigest(e.log, "jobs (first 50)", e.seed, prefix)
	var rates []float64
	var lat []float64
	for _, seg := range segs {
		var committed uint64
		lat = lat[:0]
		for _, j := range seg.jobs {
			o.Attempted++
			ref := refs[specKey(specs[j.idx])]
			if !j.failed() && manifestBytesFailures(j.manifest, ref.m) > 0 {
				j.mismatch = true
			}
			if j.failed() {
				o.Failed++
				fmt.Fprintf(e.log, "job %d failed: state %q code %d mismatch %v err %v\n", j.idx, j.state, j.code, j.mismatch, j.err)
			} else {
				committed += ref.m.Totals.Committed
			}
			lat = append(lat, j.latency())
		}
		s := &segment{start: seg.start, end: seg.end}
		rates = append(rates, s.rate(o, committed))
	}
	if err := o.jobTail(lat); err != nil && !e.traced {
		return nil, err
	}
	tracingOverhead(o, rates)
	if e.traced {
		var runs []sweep.Record
		for _, m := range prefix {
			runs = append(runs, m.Runs...)
		}
		modelLayers(o, runs)
		last := segs[len(segs)-1]
		servedLayers(o, e, svc, c, last, stream, refs)
		if err := clusterLayers(o, e, stream, last, refs); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// recordJobSpans turns each job's client-side timestamps into spans named
// after the plane's layer.
func recordJobSpans(tr *tracer, jobs []*jobResult, layer string) {
	for _, j := range jobs {
		if j.failed() {
			continue
		}
		id := fmt.Sprintf("%s-job%d", layer, j.idx)
		tr.add(id, "job", "", j.t0, j.fetched.Sub(j.t0))
		tr.add(id, layer+".submit", "job", j.t0, j.submitted.Sub(j.t0))
		tr.add(id, layer+".queue_wait", "job", j.submitted, j.running.Sub(j.submitted))
		tr.add(id, layer+".exec", "job", j.running, j.finished.Sub(j.running))
		tr.add(id, layer+".manifest_fetch", "job", j.finished, j.fetched.Sub(j.finished))
	}
}

// servedLayers derives the server layer's metrics of the traced segment.
func servedLayers(o *outcome, e *env, svc *service, c *client, seg *servedSeg, stream *jobStream, refs map[string]*refEntry) {
	var served, offline float64
	for _, j := range seg.jobs {
		spec, fresh := stream.job(j.idx)
		if fresh && !j.failed() {
			served += j.latency()
			offline += ms(refs[specKey(spec)].wall)
		}
	}
	o.Metrics["server.submit_ms_p50"] = median(e.tr.durs("server.submit"))
	o.Metrics["server.queue_wait_ms_p50"] = median(e.tr.durs("server.queue_wait"))
	o.Metrics["server.exec_ms_p50"] = median(e.tr.durs("server.exec"))
	o.Metrics["server.manifest_fetch_ms_p50"] = median(e.tr.durs("server.manifest_fetch"))
	hits := seg.after.cacheHits - seg.before.cacheHits
	misses := seg.after.cacheMisses - seg.before.cacheMisses
	o.Metrics["server.cache_hit_frac"] = ratio(hits, hits+misses)
	o.Metrics["server.rate_limited"] = seg.after.rateLimited - seg.before.rateLimited
	o.Metrics["server.overhead_pct"] = 100 * (ratio(served, offline) - 1)
	ph := scrape(c, svc.url, "atr_runner_program_hits_total")
	pc := scrape(c, svc.url, "atr_runner_programs_cached")
	o.Metrics["experiments.program_cache_hit_frac"] = ratio(ph, ph+pc)
}

// clusterLayers replays the traced segment's first replayJobs jobs, in
// stream order, on an in-process coordinator with two workers (1 sim
// worker each, atrd's defaults including the 250 ms poll interval) and
// derives the cluster layer's metrics. The replayed manifests go through
// the same output check as the served ones.
func clusterLayers(o *outcome, e *env, stream *jobStream, seg *servedSeg, refs map[string]*refEntry) error {
	done := append([]*jobResult(nil), seg.jobs...)
	sort.Slice(done, func(a, b int) bool { return done[a].idx < done[b].idx })
	replay := newJobStream(0, nil)
	var servedLat []float64
	for _, j := range done {
		if len(servedLat) < replayJobs && !j.failed() {
			spec, _ := stream.job(j.idx)
			replay.specs = append(replay.specs, spec)
			replay.fresh = append(replay.fresh, true)
			servedLat = append(servedLat, j.latency())
		}
	}
	svc, err := startService(filepath.Join(e.dir, "cluster"), true)
	if err != nil {
		return err
	}
	c := newClient(svc.url)
	stolen := scrape(c, svc.url, "atr_cluster_units_stolen_total")
	svc.obs.trace(e.tr)
	jobs := closedLoop(c, replay, 0, phaseBudget{}, len(replay.specs))
	svc.obs.trace(nil)
	o.Metrics["cluster.units_stolen"] = scrape(c, svc.url, "atr_cluster_units_stolen_total") - stolen
	c.http.CloseIdleConnections()
	if err := svc.stop(); err != nil {
		return err
	}

	var clusterLat, wait []float64
	for _, j := range jobs {
		o.Attempted++
		if !j.failed() && manifestBytesFailures(j.manifest, refs[specKey(replay.specs[j.idx])].m) > 0 {
			j.mismatch = true
		}
		if j.failed() {
			o.Failed++
			fmt.Fprintf(e.log, "cluster job %d failed: state %q code %d mismatch %v err %v\n", j.idx, j.state, j.code, j.mismatch, j.err)
			continue
		}
		clusterLat = append(clusterLat, j.latency())
		if t, ok := svc.obs.firstLease[j.id]; ok {
			wait = append(wait, ms(t.Sub(j.t0)))
		}
	}
	recordJobSpans(e.tr, jobs, "cluster")
	o.Metrics["cluster.submit_ms_p50"] = median(e.tr.durs("cluster.submit"))
	o.Metrics["cluster.upload_ms_p50"] = median(e.tr.durs("cluster.upload"))
	o.Metrics["cluster.empty_poll_frac"] = ratio(float64(svc.obs.emptyPolls), float64(svc.obs.polls))
	o.Metrics["cluster.dispatch_wait_ms_p50"] = median(wait)
	o.Metrics["cluster.overhead_pct"] = 100 * (ratio(median(clusterLat), median(servedLat)) - 1)
	return nil
}
