// Package server is atrd's serving layer: a long-running HTTP daemon that
// accepts simulation and sweep jobs, executes them on the sweep engine's
// work-stealing pool, and streams progress as NDJSON/SSE.
//
// The correctness contract of the whole subsystem is manifest parity: the
// manifest served for any grid is byte-identical to what offline atrsweep
// produces for the same grid. Everything the daemon adds — the bounded job
// queue, per-client rate limiting, the content-addressed result cache,
// graceful drain and restart resume — is built from mechanisms that the
// sweep engine already proves deterministic (run keys, journals, resume
// merge), so serving infrastructure cannot perturb a byte of a result.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"atr/internal/experiments"
	"atr/internal/obs"
	"atr/internal/pipeline"
	"atr/internal/sweep"
	"atr/internal/telemetry"
)

// Options configures a daemon.
type Options struct {
	// StateDir holds per-job specs, journals, and manifests. It is the
	// daemon's durable memory: a restarted daemon resumes every
	// incomplete non-ephemeral job found here.
	StateDir string

	// DefaultInstr is the per-run instruction budget applied to specs
	// that leave Instr zero (0 selects 40000).
	DefaultInstr uint64

	// SimWorkers bounds each job's simulation pool (<= 0 selects
	// GOMAXPROCS); JobWorkers bounds how many jobs execute concurrently
	// (<= 0 selects 2).
	SimWorkers int
	JobWorkers int

	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it are refused with 429 + Retry-After
	// (<= 0 selects 64).
	QueueDepth int

	// Rate and Burst shape the per-client submission token bucket
	// (Rate 0 selects 5/sec; negative disables limiting; Burst <= 0
	// selects 10).
	Rate  float64
	Burst int

	// CacheCap bounds the content-addressed run-record cache (<= 0
	// selects 65536 records).
	CacheCap int

	// RunnerCacheCap bounds the shared experiments.Runner program cache
	// (<= 0 selects its default).
	RunnerCacheCap int

	// Retries and Backoff are passed to each job's sweep engine.
	Retries int
	Backoff time.Duration

	// Logger receives the daemon's structured request and job-lifecycle
	// log (slog). nil discards — the daemon never falls back to the
	// process-global logger, so tests stay quiet by default.
	Logger *slog.Logger
}

// Server is the daemon. It implements http.Handler.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	runner  *experiments.Runner // shared across jobs: program cache
	cache   *RunCache
	limiter *Limiter
	tm      *serverMetrics // all counters/gauges/histograms; Metrics() is a view
	logger  *slog.Logger

	baseCtx    context.Context
	cancelBase context.CancelFunc
	wg         sync.WaitGroup

	qmu     sync.Mutex
	qcond   *sync.Cond
	pending []*Job
	closed  bool

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string
	nextID    int
	startedAt time.Time

	// beforeRun, when non-nil, is called by a worker after a job enters
	// the running state and before its engine starts. Tests use it to
	// hold jobs in flight deterministically; read and written under mu
	// (tests that swap it mid-flight use setBeforeRun).
	beforeRun func(*Job)
}

// setBeforeRun swaps the test hook under the same lock runJob reads it.
func (s *Server) setBeforeRun(fn func(*Job)) {
	s.mu.Lock()
	s.beforeRun = fn
	s.mu.Unlock()
}

// persistedJob is the on-disk spec record binding an ID to its submission.
type persistedJob struct {
	ID          string  `json:"id"`
	SubmittedAt string  `json:"submitted_at"`
	Spec        JobSpec `json:"spec"`
}

// statusFile marks a terminal non-done outcome so a restart does not
// resurrect the job. Done jobs are marked by their manifest instead, and
// interrupted jobs deliberately leave no marker — that is what makes them
// resumable.
type statusFile struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// New creates a daemon over a state directory, recovers incomplete jobs
// from it, and starts the job workers.
func New(opts Options) (*Server, error) {
	if opts.DefaultInstr == 0 {
		opts.DefaultInstr = 40_000
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Rate == 0 {
		opts.Rate = 5
	}
	if opts.Burst <= 0 {
		opts.Burst = 10
	}
	if opts.Retries == 0 {
		opts.Retries = 1
	}
	if opts.StateDir == "" {
		return nil, errors.New("server: StateDir is required")
	}
	if err := os.MkdirAll(filepath.Join(opts.StateDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}

	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	tm := newServerMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		runner:     experiments.NewRunner(opts.DefaultInstr),
		cache:      NewRunCache(opts.CacheCap, tm.cacheHits, tm.cacheMisses),
		limiter:    NewLimiter(opts.Rate, opts.Burst),
		tm:         tm,
		logger:     logger,
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       make(map[string]*Job),
		nextID:     1,
		startedAt:  time.Now(),
	}
	s.runner.CacheCap = opts.RunnerCacheCap
	tm.registerCollectors(s)
	s.qcond = sync.NewCond(&s.qmu)
	s.routes()

	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < opts.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Shutdown gracefully drains the daemon: no new jobs start, running
// engines are cancelled (their in-flight runs complete and are journaled),
// and incomplete jobs park as interrupted — a later New over the same
// state dir re-queues and resumes them. It returns ctx.Err() if the drain
// outlives ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.qmu.Lock()
	s.closed = true
	s.qcond.Broadcast()
	s.qmu.Unlock()
	s.cancelBase()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// recover scans the state dir: done jobs are indexed for serving, terminal
// failures/cancellations keep their state, and everything else — including
// jobs interrupted by the previous daemon's shutdown or kill — re-queues
// with its journal as the resume source.
func (s *Server) recover() error {
	dir := filepath.Join(s.opts.StateDir, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("server: scan state: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(dir, id, "spec.json"))
		if err != nil {
			continue // half-created job dir: nothing recoverable
		}
		var pj persistedJob
		if err := json.Unmarshal(b, &pj); err != nil || pj.ID != id {
			continue
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		g, err := pj.Spec.ResolveGrid(s.opts.DefaultInstr)
		if err != nil {
			continue // spec no longer resolvable (e.g. renamed profile)
		}
		j := newJob(id, pj.Spec, g.Name, len(g.Units()), pj.SubmittedAt)
		s.jobs[id] = j
		s.order = append(s.order, id)

		switch {
		case fileExists(s.jobFile(id, "manifest.json")):
			j.finish(StateDone, "")
		case fileExists(s.jobFile(id, "status.json")):
			var st statusFile
			if b, err := os.ReadFile(s.jobFile(id, "status.json")); err == nil {
				_ = json.Unmarshal(b, &st)
			}
			if st.State == "" {
				st.State = StateFailed
			}
			j.finish(st.State, st.Error)
		case pj.Spec.Ephemeral:
			// The watcher that owned this job is gone with the old
			// daemon; treat the job as cancelled by disconnect.
			s.writeStatus(j, StateCancelled, "daemon restarted; ephemeral owner gone")
			j.finish(StateCancelled, "daemon restarted; ephemeral owner gone")
		default:
			// Re-queued jobs get the finish hook — recovered terminal
			// jobs above deliberately do not, so counters only reflect
			// this daemon's own work (as before the registry rewire).
			j.onFinish = s.noteFinish
			j.enqueuedAt = time.Now()
			s.tm.jobsRecovered.Inc()
			s.tm.jobsQueued.Inc()
			s.pending = append(s.pending, j)
			s.logger.Info("job recovered", "job", id, "grid", j.GridName, "units", j.Total)
		}
	}
	return nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func (s *Server) jobDir(id string) string {
	return filepath.Join(s.opts.StateDir, "jobs", id)
}

func (s *Server) jobFile(id, name string) string {
	return filepath.Join(s.jobDir(id), name)
}

// writeStatus persists a terminal non-done state marker.
func (s *Server) writeStatus(j *Job, state, errMsg string) {
	b, _ := json.Marshal(statusFile{State: state, Error: errMsg})
	_ = WriteFileAtomic(s.jobFile(j.ID, "status.json"), append(b, '\n'))
}

// noteFinish is the Job.onFinish hook: it moves the terminal-state and
// running-gauge accounting onto the telemetry registry. It runs under the
// job's mutex, so it touches only lock-free instruments. Interrupted jobs
// are deliberately not counted — they resume under the next daemon.
func (s *Server) noteFinish(prev, state string) {
	if prev == StateRunning {
		s.tm.jobsRunning.Dec()
	}
	switch state {
	case StateDone:
		s.tm.jobsDone.Inc()
	case StateFailed:
		s.tm.jobsFailed.Inc()
	case StateCancelled:
		s.tm.jobsCancelled.Inc()
	}
}

// submit validates, persists, and queues a job. It is the only admission
// path, and enforces the queue bound.
func (s *Server) submit(spec JobSpec) (*Job, error, int) {
	t0 := time.Now()
	g, err := spec.ResolveGrid(s.opts.DefaultInstr)
	if err != nil {
		return nil, err, http.StatusBadRequest
	}
	units := g.Units()
	if len(units) == 0 {
		return nil, fmt.Errorf("grid %q is empty", g.Name), http.StatusBadRequest
	}

	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		return nil, errors.New("daemon is shutting down"), http.StatusServiceUnavailable
	}
	if len(s.pending) >= s.opts.QueueDepth {
		s.qmu.Unlock()
		return nil, fmt.Errorf("job queue is full (%d queued)", s.opts.QueueDepth), http.StatusTooManyRequests
	}
	s.qmu.Unlock()

	s.mu.Lock()
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	now := time.Now().UTC().Format(time.RFC3339Nano)
	j := newJob(id, spec, g.Name, len(units), now)
	j.onFinish = s.noteFinish
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.tm.jobsSubmitted.Inc()

	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		j.finish(StateFailed, err.Error())
		return nil, err, http.StatusInternalServerError
	}
	b, _ := json.MarshalIndent(persistedJob{ID: id, SubmittedAt: now, Spec: spec}, "", "  ")
	if err := WriteFileAtomic(s.jobFile(id, "spec.json"), append(b, '\n')); err != nil {
		j.finish(StateFailed, err.Error())
		return nil, err, http.StatusInternalServerError
	}

	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		j.finish(StateInterrupted, "daemon is shutting down")
		return nil, errors.New("daemon is shutting down"), http.StatusServiceUnavailable
	}
	j.enqueuedAt = time.Now()
	s.pending = append(s.pending, j)
	s.tm.jobsQueued.Inc()
	s.qcond.Signal()
	s.qmu.Unlock()

	s.emitSpan(j, telemetry.Span{Name: "submit", Detail: g.Name}, t0, time.Since(t0))
	s.logger.Info("job submitted", "job", id, "grid", g.Name, "units", len(units))
	return j, nil, 0
}

// emitSpan appends one span line to the job's span log. Tracing is
// best-effort and strictly off the result path: any error is ignored, and
// nothing downstream ever reads spans to make a decision.
func (s *Server) emitSpan(j *Job, sp telemetry.Span, start time.Time, dur time.Duration) {
	f, err := os.OpenFile(s.jobFile(j.ID, "spans.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	telemetry.NewSpanLog(f, j.ID).Emit(sp, start, dur)
}

// worker pulls queued jobs and executes them until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.nextJob()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

func (s *Server) nextJob() *Job {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for {
		if s.closed {
			return nil
		}
		if len(s.pending) > 0 {
			j := s.pending[0]
			s.pending = s.pending[1:]
			// The queued gauge tracks queue membership, not job state: a
			// job cancelled while queued still sits in pending until this
			// pop, so decrementing here (and only here) keeps the gauge
			// equal to len(pending) at all times.
			s.tm.jobsQueued.Dec()
			return j
		}
		s.qcond.Wait()
	}
}

// runJob executes one job on a sweep engine: journal to the job dir,
// resume from any prior journal plus the result cache, and on success
// write the deterministic manifest (the exact bytes Manifest.Encode
// produces — the same encoder offline atrsweep uses, which is what makes
// served and offline manifests comparable with cmp).
func (s *Server) runJob(j *Job) {
	g, err := j.Spec.ResolveGrid(s.opts.DefaultInstr)
	if err != nil {
		s.failJob(j, err.Error())
		return
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.setRunning(cancel) {
		return // cancelled while queued
	}
	s.tm.jobsRunning.Inc()
	qwait := time.Since(j.enqueuedAt)
	s.tm.queueWait.Observe(qwait)

	// One span log per execution, shared by the engine's worker callbacks
	// (SpanLog serializes writes; nil degrades every Emit to a no-op).
	var sl *telemetry.SpanLog
	if sf, err := os.OpenFile(s.jobFile(j.ID, "spans.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
		defer sf.Close()
		sl = telemetry.NewSpanLog(sf, j.ID)
	}
	sl.Emit(telemetry.Span{Name: "queue-wait"}, j.enqueuedAt, qwait)
	s.logger.Info("job started", "job", j.ID, "grid", j.GridName, "units", j.Total,
		"queue_wait_ms", float64(qwait.Microseconds())/1000)

	s.mu.Lock()
	hook := s.beforeRun
	s.mu.Unlock()
	if hook != nil {
		hook(j)
	}

	resume := s.resumeFor(j, g)

	jf, err := os.OpenFile(s.jobFile(j.ID, "journal.jsonl"), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		s.failJob(j, err.Error())
		return
	}

	eng := sweep.New(sweep.Options{
		Workers:     s.opts.SimWorkers,
		Retries:     s.opts.Retries,
		Backoff:     s.opts.Backoff,
		Journal:     jf,
		Resume:      resume,
		JobID:       j.ID,
		InjectPanic: j.Spec.InjectPanic,
		OnProgress:  j.publish,
		OnRun: func(u sweep.Unit, worker int, start time.Time, dur time.Duration, errMsg string) {
			s.tm.runDuration.Observe(dur)
			sl.Emit(telemetry.Span{
				Name: "run", RunKey: u.Key, Seq: u.Seq, Worker: worker,
				Bench: u.Profile.Name, Scheme: u.Config.Scheme.String(), Err: errMsg,
			}, start, dur)
		},
	})
	m, execErr := eng.Execute(ctx, g, s.runFunc(g.Instr))
	jf.Close()

	info := eng.Info()
	if pf, err := os.Create(s.jobFile(j.ID, "perf.json")); err == nil {
		_ = obs.NewPerfManifest(info).Encode(pf)
		pf.Close()
	}

	if execErr != nil {
		switch {
		case j.wasCancelled():
			s.writeStatus(j, StateCancelled, "cancelled")
			j.finish(StateCancelled, "cancelled")
			s.logger.Info("job cancelled", "job", j.ID)
		case s.baseCtx.Err() != nil:
			// Shutdown drain: no status marker, so the journal makes the
			// job resumable by the next daemon.
			j.finish(StateInterrupted, "daemon shutdown; journaled runs will resume")
			s.logger.Info("job interrupted", "job", j.ID)
		default:
			s.failJob(j, execErr.Error())
		}
		return
	}

	mergeStart := time.Now()
	var buf strings.Builder
	if err := m.Encode(&buf); err != nil {
		s.failJob(j, err.Error())
		return
	}
	if err := WriteFileAtomic(s.jobFile(j.ID, "manifest.json"), []byte(buf.String())); err != nil {
		s.failJob(j, err.Error())
		return
	}
	sl.Emit(telemetry.Span{Name: "merge", Detail: "manifest.json"}, mergeStart, time.Since(mergeStart))

	for _, rec := range m.Runs {
		s.cache.Put(rec.Key, g.Instr, rec)
	}
	j.finish(StateDone, "")
	s.logger.Info("job done", "job", j.ID,
		"done", info.Done, "failed", info.Failed, "resumed", info.Resumed,
		"wall_s", info.WallSeconds)
}

// failJob marks a terminal failure: persistent status marker, state
// transition (the onFinish hook does the counting), and one log line.
func (s *Server) failJob(j *Job, msg string) {
	s.writeStatus(j, StateFailed, msg)
	j.finish(StateFailed, msg)
	s.logger.Error("job failed", "job", j.ID, "err", msg)
}

// resumeFor builds the job's resume source: the job's own journal from a
// previous daemon life, topped up with content-addressed cache records for
// every remaining unit. The engine treats both identically — resumed runs
// are re-journaled and merge into the manifest exactly as executed runs
// would, which is why cache hits cannot change a served byte.
func (s *Server) resumeFor(j *Job, g sweep.Grid) *sweep.Journal {
	resume := &sweep.Journal{Grid: g.Name, Instr: g.Instr, Records: make(map[string]sweep.Record)}
	if f, err := os.Open(s.jobFile(j.ID, "journal.jsonl")); err == nil {
		if prev, err := sweep.LoadJournal(f); err == nil && prev.Grid == g.Name && prev.Instr == g.Instr {
			for k, rec := range prev.Records {
				resume.Records[k] = rec
			}
		}
		f.Close()
	}
	cached := 0
	for _, u := range g.Units() {
		if _, ok := resume.Records[u.Key]; ok {
			continue
		}
		if rec, ok := s.cache.Get(u.Key, g.Instr); ok {
			resume.Records[u.Key] = rec
			cached++
		}
	}
	if cached > 0 {
		s.tm.runsFromCache.Add(uint64(cached))
	}
	return resume
}

// runFunc is the serving layer's RunFunc: sweep.RunUnit, the run function
// offline sweeps execute, over program images shared across jobs through
// the daemon's experiments.Runner.
func (s *Server) runFunc(instr uint64) sweep.RunFunc {
	return func(ctx context.Context, u sweep.Unit) (pipeline.Result, error) {
		res, err := sweep.RunUnit(u, s.runner.Program(u.Profile), pipeline.SchedulerEvent, instr)
		if err == nil {
			s.tm.runsExecuted.Inc()
		}
		return res, err
	}
}

// Metrics snapshots the daemon's JSON /metrics view. Since the registry
// rewire this is a read-only projection of the same lock-free instruments
// the Prometheus exposition serves — there is exactly one set of counters.
// Reads are relaxed-atomic monitoring snapshots (see DESIGN 3.1e): each
// value is a real past value, but the set is not a consistent cut.
func (s *Server) Metrics() obs.ServerInfo {
	tm := s.tm
	hits, misses, size, capacity := s.cache.Stats()
	memoHits, _, _ := s.runner.CacheStats()
	_, progs := s.runner.ProgramCacheStats()
	return obs.ServerInfo{
		Build:          obs.Build(),
		StartedAt:      s.startedAt.UTC().Format(time.RFC3339Nano),
		UptimeSeconds:  time.Since(s.startedAt).Seconds(),
		JobsSubmitted:  int(tm.jobsSubmitted.Value()),
		JobsQueued:     int(tm.jobsQueued.Value()),
		JobsRunning:    int(tm.jobsRunning.Value()),
		JobsDone:       int(tm.jobsDone.Value()),
		JobsFailed:     int(tm.jobsFailed.Value()),
		JobsCancelled:  int(tm.jobsCancelled.Value()),
		JobsRecovered:  int(tm.jobsRecovered.Value()),
		QueueCap:       s.opts.QueueDepth,
		RateLimited:    int(tm.rateLimited.Value()),
		RunsExecuted:   int(tm.runsExecuted.Value()),
		RunsFromCache:  int(tm.runsFromCache.Value()),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheSize:      size,
		CacheCap:       capacity,
		HTTPRequests:   int(tm.httpAll.Value()),
		LimiterClients: s.limiter.Clients(),
		RunnerMemoHits: int(memoHits),
		RunnerPrograms: progs,
	}
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("POST /v1/jobs", s.instrument("submit", s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.instrument("list", s.handleList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("status", s.handleStatus))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("cancel", s.handleCancel))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("events", s.handleEvents))
	s.mux.HandleFunc("GET /v1/jobs/{id}/manifest", s.instrument("manifest", s.handleManifest))
	s.mux.HandleFunc("GET /v1/jobs/{id}/perf", s.instrument("perf", s.handlePerf))
}

// instrument wraps a handler with the per-route latency histogram, the
// status-class counter, and one structured request log line. The wrapped
// writer passes Flush through, so streaming handlers keep working; for
// those the recorded latency covers the whole stream, which is the honest
// number for an endpoint whose job is to stay open.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.tm.httpDur[route]
	byClass := s.tm.httpReq[route]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		dur := time.Since(t0)
		code := sw.code
		if code == 0 {
			code = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		hist.Observe(dur)
		byClass[codeClass(code)].Inc()
		s.tm.httpAll.Inc()
		lvl := slog.LevelInfo
		if route == "healthz" || route == "metrics" {
			lvl = slog.LevelDebug // scrape traffic: visible only at -log-level debug
		}
		s.logger.Log(r.Context(), lvl, "request",
			"method", r.Method, "route", route, "path", r.URL.Path,
			"status", code, "dur_ms", float64(dur.Microseconds())/1000,
			"client", ClientKey(r))
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
	State string `json:"state,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.qmu.Lock()
	closed := s.closed
	s.qmu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics negotiates between the two views of the one instrument
// set: Prometheus text exposition by default (what a scraper expects from
// GET /metrics), the legacy JSON ServerInfo when the client asks for
// application/json (atrctl does).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, s.Metrics())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.tm.reg.WriteText(w)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if ok, retry := s.limiter.Allow(ClientKey(r), time.Now()); !ok {
		s.tm.rateLimited.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: "rate limit exceeded"})
		return
	}
	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job spec: " + err.Error()})
		return
	}
	j, err, code := s.submit(spec)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, code, apiError{Error: err.Error()})
		return
	}

	if r.URL.Query().Get("watch") != "1" {
		writeJSON(w, http.StatusAccepted, j.Status())
		return
	}
	// The submitting connection watches the job. Ephemeral jobs live and
	// die with it: a disconnect cancels the job context.
	if spec.Ephemeral {
		go func() {
			select {
			case <-r.Context().Done():
				j.requestCancel()
			case <-j.Done():
			}
		}()
	}
	s.streamEvents(w, r, j)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].Status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job " + r.PathValue("id")})
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		s.streamEvents(w, r, j)
	}
}

// streamEvents writes the job's live event feed until the job finishes or
// the client goes away. NDJSON by default; SSE when the client asks for
// text/event-stream.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	writeEvent := func(ev Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", b)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", b)
		}
		if err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	events, unsub := j.subscribe()
	defer unsub()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				// Terminal: the broadcast may have been dropped for a
				// slow reader, so always close with a status snapshot.
				st := j.Status()
				writeEvent(Event{Type: "status", Job: j.ID, State: st.State, Error: st.Error})
				return
			}
			if !writeEvent(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleManifest serves the deterministic result manifest: the exact bytes
// written at job completion. Comparing this response with an offline
// atrsweep -out file via cmp is the subsystem's acceptance check.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if st := j.State(); st != StateDone {
		writeJSON(w, http.StatusConflict, apiError{Error: "manifest not available", State: st})
		return
	}
	t0 := time.Now()
	s.serveFile(w, s.jobFile(j.ID, "manifest.json"))
	s.emitSpan(j, telemetry.Span{Name: "serve", Detail: "manifest.json"}, t0, time.Since(t0))
}

func (s *Server) handlePerf(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	path := s.jobFile(j.ID, "perf.json")
	if !fileExists(path) {
		writeJSON(w, http.StatusConflict, apiError{Error: "perf telemetry not available", State: j.State()})
		return
	}
	s.serveFile(w, path)
}

func (s *Server) serveFile(w http.ResponseWriter, path string) {
	f, err := os.Open(path)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}
