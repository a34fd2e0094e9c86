package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"atr/internal/server"
)

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

func (c *Coordinator) routes() {
	c.mux = http.NewServeMux()
	// Client API: the same /v1 surface the single-node daemon serves.
	c.mux.HandleFunc("GET /healthz", c.handleHealth)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs", c.handleList)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleStatus)
	c.mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleCancel)
	c.mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleEvents)
	c.mux.HandleFunc("GET /v1/jobs/{id}/manifest", c.handleManifest)
	// Worker API.
	c.mux.HandleFunc("POST /cluster/v1/register", c.handleRegister)
	c.mux.HandleFunc("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /cluster/v1/poll", c.handlePoll)
	c.mux.HandleFunc("POST /cluster/v1/results", c.handleResults)
	// Fleet API.
	c.mux.HandleFunc("GET /cluster/v1/workers", c.handleWorkers)
	c.mux.HandleFunc("GET /cluster/v1/quotas", c.handleQuotasGet)
	c.mux.HandleFunc("PUT /cluster/v1/quotas", c.handleQuotasPut)
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

func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	body := http.MaxBytesReader(w, r.Body, limit)
	return json.NewDecoder(body).Decode(v)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "coordinator"})
}

// handleMetrics negotiates like the single-node daemon: Prometheus text
// by default, a JSON fleet snapshot when the client asks for it (atrctl
// metrics does).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, c.Fleet())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = c.cm.reg.WriteText(w)
}

// --- client API ---

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := server.ClientKey(r)
	if ok, retry := c.limiter.Allow(tenant, time.Now()); !ok {
		c.cm.rateLimited.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: "rate limit exceeded"})
		return
	}
	var spec server.JobSpec
	if err := decodeBody(w, r, &spec, 1<<20); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job spec: " + err.Error()})
		return
	}
	g, err := spec.ResolveGrid(c.opts.DefaultInstr)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job spec: " + err.Error()})
		return
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "coordinator is draining"})
		return
	}
	if max := c.quotaLocked(tenant); max > 0 && c.active[tenant] >= max {
		activeNow := c.active[tenant]
		c.cm.quotaRejected.Inc()
		c.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests,
			apiError{Error: fmt.Sprintf("tenant %q has %d active jobs (quota %d)", tenant, activeNow, max)})
		return
	}
	id := fmt.Sprintf("c%06d", c.nextID)
	j, err := newCjob(id, tenant, spec, g)
	if err != nil {
		c.mu.Unlock()
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job spec: " + err.Error()})
		return
	}
	c.nextID++
	j.submittedAt = time.Now().UTC().Format(time.RFC3339Nano)
	if err := c.persistSubmitLocked(j); err != nil {
		c.mu.Unlock()
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "job store: " + err.Error()})
		return
	}
	c.adoptLocked(j)
	c.active[tenant]++
	c.cm.jobsSubmitted.Inc()
	c.satisfyFromCacheLocked(j)
	c.maybeFinishLocked(j)
	st := c.statusLocked(j)
	c.mu.Unlock()
	c.logger.Info("job submitted", "job", id, "tenant", tenant, "grid", g.Name, "total", st.Total)

	if r.URL.Query().Get("watch") != "1" {
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	if spec.Ephemeral {
		// The submitting connection owns the job: a disconnect cancels it.
		go func() {
			<-r.Context().Done()
			c.cancel(j)
		}()
	}
	c.streamEvents(w, r, j)
}

// persistSubmitLocked writes the job-store entry and opens the journal.
func (c *Coordinator) persistSubmitLocked(j *cjob) error {
	if err := os.MkdirAll(c.jobDir(j.id), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(persistedJob{
		ID: j.id, Tenant: j.tenant, SubmittedAt: j.submittedAt, Spec: j.spec,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := server.WriteFileAtomic(c.jobFile(j.id, "spec.json"), append(b, '\n')); err != nil {
		return err
	}
	return c.openJournal(j)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	out := make([]server.Status, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.statusLocked(c.jobs[id]))
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (c *Coordinator) lookup(w http.ResponseWriter, r *http.Request) (*cjob, bool) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	c.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job " + r.PathValue("id")})
	}
	return j, ok
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookup(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	st := c.statusLocked(j)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookup(w, r)
	if !ok {
		return
	}
	c.cancel(j)
	c.mu.Lock()
	st := c.statusLocked(j)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) cancel(j *cjob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j.jstate != server.StateRunning {
		return
	}
	c.finishLocked(j, server.StateCancelled, "cancelled")
	c.cm.jobsCancelled.Inc()
	b, _ := json.Marshal(persistedStatus{State: server.StateCancelled, Error: "cancelled"})
	_ = server.WriteFileAtomic(c.jobFile(j.id, "status.json"), append(b, '\n'))
	c.logger.Info("job cancelled", "job", j.id)
}

func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j, ok := c.lookup(w, r); ok {
		c.streamEvents(w, r, j)
	}
}

// streamEvents writes the job's event feed in the single-node daemon's
// NDJSON/SSE format until the job reaches a terminal state or the client
// goes away. The coordinator publishes a progress event on every accepted
// record (coalesced under load: watchers wake per change notification and
// read current counts).
func (c *Coordinator) streamEvents(w http.ResponseWriter, r *http.Request, j *cjob) {
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	writeEvent := func(ev server.Event) bool {
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

	c.mu.Lock()
	st := c.statusLocked(j)
	changed := j.changed
	c.mu.Unlock()
	if !writeEvent(server.Event{Type: "status", Job: j.id, State: st.State, Error: st.Error}) {
		return
	}
	for {
		if terminalState(st.State) {
			writeEvent(server.Event{Type: "status", Job: j.id, State: st.State, Error: st.Error})
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
		c.mu.Lock()
		st = c.statusLocked(j)
		changed = j.changed
		c.mu.Unlock()
		p := st.Progress
		if !writeEvent(server.Event{Type: "progress", Job: j.id, Progress: &p}) {
			return
		}
	}
}

func terminalState(state string) bool {
	switch state {
	case server.StateDone, server.StateFailed, server.StateCancelled, server.StateInterrupted:
		return true
	}
	return false
}

// handleManifest serves the merged manifest: the exact bytes written at
// job completion. Comparing this response against an offline atrsweep
// -out file via cmp is the subsystem's acceptance check.
func (c *Coordinator) handleManifest(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookup(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	state := j.jstate
	c.mu.Unlock()
	if state != server.StateDone {
		writeJSON(w, http.StatusConflict, apiError{Error: "manifest not available", State: state})
		return
	}
	f, err := os.Open(c.jobFile(j.id, "manifest.json"))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}

// --- worker API ---

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := decodeBody(w, r, &req, 1<<16); err != nil || req.Name == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad registration"})
		return
	}
	now := time.Now()
	c.mu.Lock()
	if prev, ok := c.workers[req.Name]; ok {
		// A restarted daemon re-registering: its old leases are orphaned,
		// so hand them to the stealable pool immediately.
		for _, id := range c.order {
			j := c.jobs[id]
			if j.jstate != server.StateRunning {
				continue
			}
			for seq := range j.state {
				if j.state[seq].leasedTo == prev.id && j.recs[seq] == nil {
					c.reclaimLocked(j, seq)
				}
			}
		}
		delete(c.workers, prev.id)
	}
	c.workers[req.Name] = &workerState{
		id: req.Name, addr: req.Addr, simWorkers: req.SimWorkers,
		registeredAt: now, lastBeat: now,
	}
	c.ring = buildRing(c.workerIDsLocked())
	c.cm.workersRegistered.Inc()
	c.mu.Unlock()
	c.logger.Info("worker registered", "worker", req.Name, "addr", req.Addr)
	writeJSON(w, http.StatusOK, registerResponse{
		Worker:          req.Name,
		HeartbeatMillis: (c.opts.HeartbeatTimeout / 3).Milliseconds(),
		LeaseMillis:     c.opts.LeaseTimeout.Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := decodeBody(w, r, &req, 1<<16); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad heartbeat"})
		return
	}
	c.mu.Lock()
	wk, ok := c.workers[req.Worker]
	if ok {
		wk.lastBeat = time.Now()
		c.cm.heartbeats.Inc()
	}
	c.mu.Unlock()
	if !ok {
		// Evicted (or the coordinator restarted): the worker re-registers.
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown worker " + req.Worker})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req pollRequest
	if err := decodeBody(w, r, &req, 1<<16); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad poll"})
		return
	}
	max := req.Max
	if max <= 0 || max > c.opts.PollMax {
		max = c.opts.PollMax
	}
	now := time.Now()
	c.mu.Lock()
	wk, ok := c.workers[req.Worker]
	if !ok {
		c.mu.Unlock()
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown worker " + req.Worker})
		return
	}
	wk.lastBeat = now
	c.expireLocked(now)
	out := c.assignLocked(wk, max, now)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, pollResponse{Assignments: out})
}

func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	var req uploadRequest
	if err := decodeBody(w, r, &req, 64<<20); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad upload"})
		return
	}
	c.mu.Lock()
	if wk, ok := c.workers[req.Worker]; ok {
		wk.lastBeat = time.Now()
	}
	j, ok := c.jobs[req.Job]
	if !ok {
		c.mu.Unlock()
		// Unknown job: tell the worker to drop the records (the job store
		// is authoritative; nothing to resume them into).
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job " + req.Job})
		return
	}
	if req.SpecError != "" && j.jstate == server.StateRunning {
		c.failLocked(j, "worker "+req.Worker+" cannot resolve spec: "+req.SpecError)
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, uploadResponse{})
		return
	}
	resp := uploadResponse{}
	for _, rec := range req.Records {
		if j.jstate != server.StateRunning {
			// Late upload for a finished/cancelled job: keep the dedup
			// value (feed the cache), discard the rest.
			c.cache.Put(rec.Key, j.grid.Instr, rec)
			resp.Duplicate++
			c.cm.dupUploads.Inc()
			continue
		}
		if c.acceptLocked(j, rec, req.Worker, false) {
			resp.Accepted++
			c.cm.unitsUploaded.Inc()
			if wk, ok := c.workers[req.Worker]; ok {
				if rec.Err == "" {
					wk.done++
				} else {
					wk.failed++
				}
			}
		} else {
			resp.Duplicate++
		}
	}
	c.maybeFinishLocked(j)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// --- fleet API ---

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.expireLocked(time.Now())
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, c.Fleet())
}

func (c *Coordinator) handleQuotasGet(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	v := QuotaView{DefaultMaxActive: c.opts.MaxActive, Tenants: make(map[string]int, len(c.quotas))}
	for tenant, max := range c.quotas {
		v.Tenants[tenant] = max
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (c *Coordinator) handleQuotasPut(w http.ResponseWriter, r *http.Request) {
	var upd quotaUpdate
	if err := decodeBody(w, r, &upd, 1<<16); err != nil || upd.Tenant == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad quota update (want {tenant, max_active})"})
		return
	}
	if upd.MaxActive < 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "max_active must be >= 0 (0 removes the override)"})
		return
	}
	c.mu.Lock()
	if upd.MaxActive == 0 {
		delete(c.quotas, upd.Tenant)
	} else {
		c.quotas[upd.Tenant] = upd.MaxActive
	}
	err := c.saveQuotasLocked()
	v := QuotaView{DefaultMaxActive: c.opts.MaxActive, Tenants: make(map[string]int, len(c.quotas))}
	for tenant, max := range c.quotas {
		v.Tenants[tenant] = max
	}
	c.mu.Unlock()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "persist quotas: " + err.Error()})
		return
	}
	c.logger.Info("quota updated", "tenant", upd.Tenant, "max_active", upd.MaxActive)
	writeJSON(w, http.StatusOK, v)
}
