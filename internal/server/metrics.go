package server

import (
	"net/http"
	"time"

	"atr/internal/obs"
	"atr/internal/telemetry"
)

// httpRoutes is every mux pattern's telemetry label, fixed at startup so
// the per-request record path is a map lookup done once at registration
// time, never per request.
var httpRoutes = []string{
	"healthz", "metrics", "submit", "list", "status", "cancel",
	"events", "manifest", "perf",
}

// httpCodeClasses buckets response codes for the request counter.
var httpCodeClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// serverMetrics is the daemon's instrument set: every counter the old
// mutex-guarded ServerInfo ints tracked, now as lock-free registry
// instruments, plus the latency histograms and collectors PR 6 adds.
// obs.ServerInfo is a point-in-time view over these (Server.Metrics);
// GET /metrics exposes the same registry as Prometheus text.
type serverMetrics struct {
	reg *telemetry.Registry

	jobsSubmitted *telemetry.Counter
	jobsDone      *telemetry.Counter
	jobsFailed    *telemetry.Counter
	jobsCancelled *telemetry.Counter
	jobsRecovered *telemetry.Counter
	jobsQueued    *telemetry.Gauge
	jobsRunning   *telemetry.Gauge

	rateLimited *telemetry.Counter

	runsExecuted  *telemetry.Counter
	runsFromCache *telemetry.Counter
	cacheHits     *telemetry.Counter
	cacheMisses   *telemetry.Counter

	queueWait   *telemetry.LatencyHistogram
	runDuration *telemetry.LatencyHistogram

	httpDur map[string]*telemetry.LatencyHistogram   // by route
	httpReq map[string]map[string]*telemetry.Counter // route -> code class
	httpAll telemetry.Counter                        // JSON-view total, not registered
}

// newServerMetrics registers the static instruments. Collectors that read
// other subsystems (cache size, limiter clients, runner caches) are added
// by registerCollectors once those subsystems exist.
func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	tm := &serverMetrics{
		reg:           reg,
		jobsSubmitted: reg.Counter("atr_jobs_submitted_total", "Jobs accepted by the admission path."),
		jobsDone:      reg.Counter("atr_jobs_done_total", "Jobs that finished with a manifest."),
		jobsFailed:    reg.Counter("atr_jobs_failed_total", "Jobs that ended in a terminal failure."),
		jobsCancelled: reg.Counter("atr_jobs_cancelled_total", "Jobs cancelled by a client or disconnect."),
		jobsRecovered: reg.Counter("atr_jobs_recovered_total", "Jobs re-queued from the state dir at startup."),
		jobsQueued:    reg.Gauge("atr_jobs_queued", "Jobs waiting for a job worker."),
		jobsRunning:   reg.Gauge("atr_jobs_running", "Jobs executing on a sweep engine."),
		rateLimited:   reg.Counter("atr_rate_limited_total", "Submissions refused with 429 by the token bucket."),
		runsExecuted:  reg.Counter("atr_runs_executed_total", "Simulations actually executed (per attempt)."),
		runsFromCache: reg.Counter("atr_runs_from_cache_total", "Grid units satisfied by the content-addressed result cache."),
		cacheHits:     reg.Counter("atr_result_cache_hits_total", "Result cache lookups that hit."),
		cacheMisses:   reg.Counter("atr_result_cache_misses_total", "Result cache lookups that missed."),
		queueWait:     reg.Histogram("atr_queue_wait_seconds", "Time from job admission to execution start.", nil),
		runDuration:   reg.Histogram("atr_run_duration_seconds", "Wall-clock duration of one executed grid unit (including retries).", nil),
		httpDur:       make(map[string]*telemetry.LatencyHistogram, len(httpRoutes)),
		httpReq:       make(map[string]map[string]*telemetry.Counter, len(httpRoutes)),
	}
	for _, route := range httpRoutes {
		tm.httpDur[route] = reg.Histogram("atr_http_request_duration_seconds",
			"HTTP handler latency (streaming handlers measure the full stream).", nil,
			telemetry.Label{Key: "route", Value: route})
		byClass := make(map[string]*telemetry.Counter, len(httpCodeClasses))
		for _, class := range httpCodeClasses {
			byClass[class] = reg.Counter("atr_http_requests_total", "HTTP requests by route and status class.",
				telemetry.Label{Key: "route", Value: route}, telemetry.Label{Key: "code", Value: class})
		}
		tm.httpReq[route] = byClass
	}
	return tm
}

// registerCollectors adds the exposition-time callbacks that read values
// already guarded by their owner's synchronization: sizes of the result and
// runner caches, the limiter's tracked-client count, uptime, and build
// identity. They run only during a scrape, never on a record path.
func (tm *serverMetrics) registerCollectors(s *Server) {
	b := obs.Build()
	tm.reg.GaugeFunc("atr_build_info", "Build identity (value is always 1).",
		func() float64 { return 1 },
		telemetry.Label{Key: "go_version", Value: b.GoVersion},
		telemetry.Label{Key: "revision", Value: b.Revision})
	tm.reg.GaugeFunc("atr_uptime_seconds", "Seconds since daemon start.",
		func() float64 { return time.Since(s.startedAt).Seconds() })
	tm.reg.GaugeFunc("atr_queue_capacity", "Bounded job queue capacity.",
		func() float64 { return float64(s.opts.QueueDepth) })
	tm.reg.GaugeFunc("atr_rate_clients", "Token buckets currently tracked by the rate limiter.",
		func() float64 { return float64(s.limiter.Clients()) })
	tm.reg.GaugeFunc("atr_result_cache_size", "Records resident in the result cache.",
		func() float64 { _, _, size, _ := s.cache.Stats(); return float64(size) })
	tm.reg.GaugeFunc("atr_result_cache_capacity", "Result cache capacity.",
		func() float64 { _, _, _, capacity := s.cache.Stats(); return float64(capacity) })
	tm.reg.CounterFunc("atr_runner_memo_hits_total", "Runner memo-cache hits.",
		func() uint64 { h, _, _ := s.runner.CacheStats(); return h })
	tm.reg.CounterFunc("atr_runner_memo_evictions_total", "Runner memo-cache evictions.",
		func() uint64 { _, e, _ := s.runner.CacheStats(); return e })
	tm.reg.GaugeFunc("atr_runner_memo_size", "Runner memo-cache resident results.",
		func() float64 { _, _, n := s.runner.CacheStats(); return float64(n) })
	tm.reg.CounterFunc("atr_runner_program_hits_total", "Shared program-cache hits.",
		func() uint64 { h, _ := s.runner.ProgramCacheStats(); return h })
	tm.reg.GaugeFunc("atr_runner_programs_cached", "Program images resident in the shared cache.",
		func() float64 { _, n := s.runner.ProgramCacheStats(); return float64(n) })
}

// statusWriter captures the response code for telemetry while passing
// Flush through — the streaming handlers (NDJSON/SSE) depend on it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func codeClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}
