package cluster

import (
	"bytes"
	"encoding/json"
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

	"atr/internal/obs"
	"atr/internal/server"
	"atr/internal/sweep"
)

// Options configures a coordinator.
type Options struct {
	// StateDir is the persistent job store: one directory per job holding
	// spec, journal, and manifest, plus the tenant quota table. Required.
	StateDir string

	// DefaultInstr fills in a zero instruction budget on submitted specs.
	DefaultInstr uint64

	// HeartbeatTimeout evicts a worker silent this long; its leases
	// become stealable. <= 0 selects 10s.
	HeartbeatTimeout time.Duration

	// LeaseTimeout reclaims a unit lease not satisfied by an upload in
	// time — the steal-back path for slow-but-alive workers. <= 0
	// selects 60s.
	LeaseTimeout time.Duration

	// PollMax bounds units granted per worker poll. <= 0 selects 64.
	PollMax int

	// Rate/Burst configure the per-tenant submission token bucket
	// (Rate <= 0 disables limiting), sharing semantics with the
	// single-node daemon.
	Rate  float64
	Burst int

	// MaxActive is the default per-tenant active-job quota; 0 is
	// unlimited. Per-tenant overrides are set via PUT /cluster/v1/quotas
	// and persist in the state dir.
	MaxActive int

	// CacheCap bounds the content-addressed result cache (records).
	CacheCap int

	// Logger receives structured coordinator logs; nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 10 * time.Second
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 60 * time.Second
	}
	if o.PollMax <= 0 {
		o.PollMax = 64
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Coordinator shards submitted sweep grids across registered worker
// daemons and merges uploaded records into manifests byte-identical to
// single-node runs. It serves the same /v1/jobs API as the single-node
// daemon — atrctl speaks to either without knowing which — plus the
// /cluster/v1 worker and fleet endpoints.
type Coordinator struct {
	opts      Options
	mux       *http.ServeMux
	cache     *server.RunCache
	limiter   *server.Limiter
	cm        *coordMetrics
	logger    *slog.Logger
	startedAt time.Time

	mu      sync.Mutex
	workers map[string]*workerState
	ring    *ring
	jobs    map[string]*cjob
	order   []string       // job IDs in submission order
	active  map[string]int // tenant -> active job count
	quotas  map[string]int // tenant -> max-active override
	nextID  int
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

type workerState struct {
	id           string
	addr         string
	simWorkers   int
	registeredAt time.Time
	lastBeat     time.Time
	leased       int
	done         uint64
	failed       uint64
}

// cjob is one cluster job: the resolved grid, per-unit lease state, and
// accepted records. A job is born running (sharding starts at the next
// worker poll) and ends done, failed, or cancelled.
type cjob struct {
	id          string
	tenant      string
	spec        server.JobSpec
	grid        sweep.Grid
	units       []sweep.Unit
	byKey       map[string]int // run key -> seq
	state       []unitState    // by seq
	recs        []*sweep.Record
	done        int
	failed      int
	fromCache   int // units satisfied without dispatch (cache or recovered journal)
	jstate      string
	jerr        string
	submittedAt string
	journal     *os.File
	changed     chan struct{} // closed and replaced on every update
}

type unitState struct {
	leasedTo  string
	leaseExp  time.Time
	stealable bool // previously leased or owner evicted: any poller may take it
}

// persistedJob is the spec.json the job store keeps per job.
type persistedJob struct {
	ID          string         `json:"id"`
	Tenant      string         `json:"tenant,omitempty"`
	SubmittedAt string         `json:"submitted_at"`
	Spec        server.JobSpec `json:"spec"`
}

// persistedStatus is the status.json marking a terminal, manifest-less
// outcome (failed or cancelled) so recovery does not resurrect the job.
type persistedStatus struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// NewCoordinator creates a coordinator, recovering every in-flight job
// from the state dir: specs re-resolve to identical grids, journaled
// successful records are re-adopted (failures re-execute, exactly like an
// engine resume), and incomplete jobs go back to running for the next
// worker poll. A full-fleet restart therefore loses at most records that
// were executing at the moment of the kill.
func NewCoordinator(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	if opts.StateDir == "" {
		return nil, fmt.Errorf("cluster: StateDir is required")
	}
	if err := os.MkdirAll(filepath.Join(opts.StateDir, "cluster-jobs"), 0o755); err != nil {
		return nil, err
	}
	cm := newCoordMetrics()
	c := &Coordinator{
		opts:      opts,
		cache:     server.NewRunCache(opts.CacheCap, cm.cacheHits, cm.cacheMisses),
		limiter:   server.NewLimiter(opts.Rate, opts.Burst),
		cm:        cm,
		logger:    opts.Logger,
		startedAt: time.Now(),
		workers:   make(map[string]*workerState),
		ring:      buildRing(nil),
		jobs:      make(map[string]*cjob),
		active:    make(map[string]int),
		quotas:    make(map[string]int),
		stop:      make(chan struct{}),
	}
	if err := c.loadQuotas(); err != nil {
		return nil, err
	}
	if err := c.recover(); err != nil {
		return nil, err
	}
	cm.registerCollectors(c)
	c.routes()
	c.wg.Add(1)
	go c.reaper()
	return c, nil
}

// Close stops the coordinator. Active jobs stay persisted in the job
// store; a restarted coordinator recovers them.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	for _, j := range c.jobs {
		if j.journal != nil {
			j.journal.Close()
			j.journal = nil
		}
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// reaper periodically expires leases and evicts silent workers, so
// steal-back happens even while no worker is polling.
func (c *Coordinator) reaper() {
	defer c.wg.Done()
	period := c.opts.HeartbeatTimeout
	if c.opts.LeaseTimeout < period {
		period = c.opts.LeaseTimeout
	}
	period /= 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.mu.Lock()
			c.expireLocked(now)
			c.mu.Unlock()
		}
	}
}

// --- state dir layout ---

func (c *Coordinator) jobDir(id string) string {
	return filepath.Join(c.opts.StateDir, "cluster-jobs", id)
}

func (c *Coordinator) jobFile(id, name string) string {
	return filepath.Join(c.jobDir(id), name)
}

func (c *Coordinator) quotaFile() string {
	return filepath.Join(c.opts.StateDir, "quotas.json")
}

func (c *Coordinator) loadQuotas() error {
	b, err := os.ReadFile(c.quotaFile())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var v QuotaView
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("cluster: quotas.json: %w", err)
	}
	for tenant, max := range v.Tenants {
		if max > 0 {
			c.quotas[tenant] = max
		}
	}
	return nil
}

// saveQuotasLocked persists the quota table atomically. Caller holds c.mu.
func (c *Coordinator) saveQuotasLocked() error {
	v := QuotaView{DefaultMaxActive: c.opts.MaxActive, Tenants: c.quotas}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return server.WriteFileAtomic(c.quotaFile(), append(b, '\n'))
}

// recover scans the job store. Jobs with a manifest are done; a terminal
// status.json keeps its state; anything else re-resolves its grid,
// re-adopts successful journal records, and resumes running.
func (c *Coordinator) recover() error {
	entries, err := os.ReadDir(filepath.Join(c.opts.StateDir, "cluster-jobs"))
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "c")); err == nil && n >= c.nextID {
			c.nextID = n + 1
		}
		b, err := os.ReadFile(c.jobFile(id, "spec.json"))
		if err != nil {
			c.logger.Warn("recover: skipping job without spec", "job", id, "err", err)
			continue
		}
		var pj persistedJob
		if err := json.Unmarshal(b, &pj); err != nil {
			c.logger.Warn("recover: unreadable spec", "job", id, "err", err)
			continue
		}
		g, err := pj.Spec.ResolveGrid(c.opts.DefaultInstr)
		if err != nil {
			c.logger.Warn("recover: spec no longer resolves", "job", id, "err", err)
			continue
		}
		j, err := newCjob(id, pj.Tenant, pj.Spec, g)
		if err != nil {
			c.logger.Warn("recover: grid invalid", "job", id, "err", err)
			continue
		}
		j.submittedAt = pj.SubmittedAt

		if _, err := os.Stat(c.jobFile(id, "manifest.json")); err == nil {
			j.jstate = server.StateDone
			j.done = len(j.units)
			c.adoptLocked(j)
			continue
		}
		if b, err := os.ReadFile(c.jobFile(id, "status.json")); err == nil {
			var st persistedStatus
			if json.Unmarshal(b, &st) == nil && st.State != "" {
				j.jstate = st.State
				j.jerr = st.Error
				c.adoptLocked(j)
				continue
			}
		}

		// In-flight: re-adopt the journal's successful records (failures
		// re-execute, matching engine resume semantics), then rewrite a
		// fresh self-contained journal exactly like a resumed sweep does.
		var adopted []sweep.Record
		if f, err := os.Open(c.jobFile(id, "journal.jsonl")); err == nil {
			if jr, err := sweep.LoadJournal(f); err == nil && jr.Grid == g.Name && jr.Instr == g.Instr {
				for key, rec := range jr.Records {
					if rec.Err != "" {
						continue
					}
					if _, ok := j.byKey[key]; ok {
						adopted = append(adopted, rec)
					}
				}
			}
			f.Close()
		}
		if err := c.openJournal(j); err != nil {
			return err
		}
		sort.Slice(adopted, func(a, b int) bool { return adopted[a].Seq < adopted[b].Seq })
		for _, rec := range adopted {
			c.acceptLocked(j, rec, "", true)
		}
		c.adoptLocked(j)
		if j.jstate == server.StateRunning {
			c.active[j.tenant]++
			c.cm.jobsRecovered.Inc()
			c.satisfyFromCacheLocked(j)
			c.maybeFinishLocked(j)
		}
		c.logger.Info("recovered job", "job", id, "state", j.jstate,
			"resumed", j.fromCache, "total", len(j.units))
	}
	return nil
}

// adoptLocked registers a job in the in-memory maps (submission order is
// ID order, which recovery's sorted scan preserves).
func (c *Coordinator) adoptLocked(j *cjob) {
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
}

func newCjob(id, tenant string, spec server.JobSpec, g sweep.Grid) (*cjob, error) {
	units := g.Units()
	if len(units) == 0 {
		return nil, fmt.Errorf("grid %q is empty", g.Name)
	}
	byKey := make(map[string]int, len(units))
	for _, u := range units {
		if prev, dup := byKey[u.Key]; dup {
			return nil, fmt.Errorf("grid %q runs %d and %d share key %s (duplicate unit)", g.Name, prev, u.Seq, u.Key)
		}
		byKey[u.Key] = u.Seq
	}
	return &cjob{
		id: id, tenant: tenant, spec: spec, grid: g,
		units: units, byKey: byKey,
		state:   make([]unitState, len(units)),
		recs:    make([]*sweep.Record, len(units)),
		jstate:  server.StateRunning,
		changed: make(chan struct{}),
	}, nil
}

// openJournal creates (truncating) the job's journal with its binding
// header. Records accepted from workers append to it, so the journal is
// always a complete account of cluster progress and is loadable by
// sweep.LoadJournal / resumable by the engine like any single-node journal.
func (c *Coordinator) openJournal(j *cjob) error {
	if err := os.MkdirAll(c.jobDir(j.id), 0o755); err != nil {
		return err
	}
	f, err := os.Create(c.jobFile(j.id, "journal.jsonl"))
	if err != nil {
		return err
	}
	if err := sweep.AppendJournalHeader(f, j.grid, len(j.units)); err != nil {
		f.Close()
		return err
	}
	j.journal = f
	return nil
}

// --- membership, leases, dispatch ---

// expireLocked advances cluster time: workers silent past the heartbeat
// timeout are evicted (membership is liveness-driven) and leases past the
// lease timeout are reclaimed. Reclaimed units become stealable — the
// first polling worker takes them regardless of ring ownership.
func (c *Coordinator) expireLocked(now time.Time) {
	evicted := false
	for id, w := range c.workers {
		if now.Sub(w.lastBeat) > c.opts.HeartbeatTimeout {
			delete(c.workers, id)
			evicted = true
			c.cm.workersEvicted.Inc()
			c.logger.Warn("worker evicted", "worker", id,
				"silent", now.Sub(w.lastBeat).Round(time.Millisecond).String())
		}
	}
	if evicted {
		c.ring = buildRing(c.workerIDsLocked())
	}
	for _, id := range c.order {
		j := c.jobs[id]
		if j.jstate != server.StateRunning {
			continue
		}
		for seq := range j.state {
			st := &j.state[seq]
			if st.leasedTo == "" || j.recs[seq] != nil {
				continue
			}
			_, alive := c.workers[st.leasedTo]
			if alive && now.Before(st.leaseExp) {
				continue
			}
			c.reclaimLocked(j, seq)
		}
	}
}

// reclaimLocked returns one leased unit to the stealable pool.
func (c *Coordinator) reclaimLocked(j *cjob, seq int) {
	st := &j.state[seq]
	if w, ok := c.workers[st.leasedTo]; ok {
		w.leased--
	}
	st.leasedTo = ""
	st.stealable = true
	c.cm.unitsStolen.Inc()
}

func (c *Coordinator) workerIDsLocked() []string {
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// assignLocked grants up to max unit leases to worker w: first the units
// the consistent-hash ring assigns to w, then stealable units any worker
// may take. Jobs are visited in submission order, so earlier jobs drain
// first.
func (c *Coordinator) assignLocked(w *workerState, max int, now time.Time) []Assignment {
	var out []Assignment
	total := 0
	for _, id := range c.order {
		j := c.jobs[id]
		if j.jstate != server.StateRunning || total >= max {
			continue
		}
		var seqs []int
		for seq := range j.units {
			if total >= max {
				break
			}
			if j.recs[seq] != nil {
				continue
			}
			st := &j.state[seq]
			if st.leasedTo != "" {
				continue // live lease; expiry is the reaper's job
			}
			if !st.stealable && c.ring.owner(j.units[seq].Key) != w.id {
				continue
			}
			st.leasedTo = w.id
			st.leaseExp = now.Add(c.opts.LeaseTimeout)
			st.stealable = false
			w.leased++
			seqs = append(seqs, seq)
			total++
		}
		if len(seqs) > 0 {
			out = append(out, Assignment{Job: j.id, Spec: j.spec, Instr: j.grid.Instr, Seqs: seqs})
			c.cm.unitsDispatched.Add(uint64(len(seqs)))
		}
	}
	return out
}

// satisfyFromCacheLocked finishes every unit of j the content-addressed
// cache already holds — cluster-wide dedup before any dispatch. Identical
// units submitted by any tenant are paid for once per fleet.
func (c *Coordinator) satisfyFromCacheLocked(j *cjob) {
	for _, u := range j.units {
		if j.recs[u.Seq] != nil {
			continue
		}
		if rec, ok := c.cache.Get(u.Key, j.grid.Instr); ok {
			c.acceptLocked(j, rec, "", true)
		}
	}
}

// acceptLocked installs one record for j, normalizing identity fields
// from the unit exactly as an engine resume does, journaling it, and
// feeding the cache. Duplicate records — a steal-back losing the race
// with the original owner's late upload, or a retried upload — are
// discarded idempotently: records are deterministic, so the copies are
// interchangeable and first-write-wins cannot change bytes. Returns false
// for a duplicate.
func (c *Coordinator) acceptLocked(j *cjob, rec sweep.Record, node string, resumed bool) bool {
	seq, ok := j.byKey[rec.Key]
	if !ok {
		c.cm.badUploads.Inc()
		return false
	}
	u := j.units[seq]
	rec.Seq, rec.Bench, rec.Scheme, rec.PhysRegs = u.Seq, u.Profile.Name, u.Config.Scheme.String(), u.Config.PhysRegs
	rec.Sample = u.Sample
	if j.recs[seq] != nil {
		c.cm.dupUploads.Inc()
		return false
	}
	r := rec
	j.recs[seq] = &r
	st := &j.state[seq]
	if w, ok := c.workers[st.leasedTo]; ok {
		w.leased--
	}
	st.leasedTo = ""
	st.stealable = false
	if rec.Err == "" {
		j.done++
	} else {
		j.failed++
	}
	if resumed {
		j.fromCache++
		c.cm.unitsFromCache.Inc()
	}
	if j.journal != nil {
		if err := sweep.AppendJournalRecord(j.journal, rec, -1, node); err != nil {
			c.logger.Error("journal write failed", "job", j.id, "err", err)
		}
	}
	c.cache.Put(rec.Key, j.grid.Instr, rec)
	j.bumpLocked()
	return true
}

// bumpLocked wakes event-stream watchers.
func (j *cjob) bumpLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// maybeFinishLocked merges and persists the manifest once every unit has
// a record. The merge is sweep.FinalizeManifest — the engine's own merge
// path — over records in grid order, then an atomic tmp+rename write, so
// a served manifest is always complete bytes.
func (c *Coordinator) maybeFinishLocked(j *cjob) {
	if j.jstate != server.StateRunning || j.done+j.failed < len(j.units) {
		return
	}
	runs := make([]sweep.Record, len(j.recs))
	for i, r := range j.recs {
		runs[i] = *r
	}
	m, err := sweep.FinalizeManifest(j.grid, runs)
	if err != nil {
		c.failLocked(j, "merge: "+err.Error())
		return
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		c.failLocked(j, "encode: "+err.Error())
		return
	}
	if err := server.WriteFileAtomic(c.jobFile(j.id, "manifest.json"), buf.Bytes()); err != nil {
		c.failLocked(j, err.Error())
		return
	}
	c.finishLocked(j, server.StateDone, "")
	c.cm.jobsDone.Inc()
	c.logger.Info("job done", "job", j.id, "done", j.done, "failed", j.failed)
}

// failLocked marks a job failed and persists the terminal status.
func (c *Coordinator) failLocked(j *cjob, msg string) {
	c.finishLocked(j, server.StateFailed, msg)
	c.cm.jobsFailed.Inc()
	b, _ := json.Marshal(persistedStatus{State: server.StateFailed, Error: msg})
	_ = server.WriteFileAtomic(c.jobFile(j.id, "status.json"), append(b, '\n'))
	c.logger.Error("job failed", "job", j.id, "err", msg)
}

// finishLocked performs the terminal transition shared by done, failed,
// and cancelled: release leases, close the journal, decrement the
// tenant's active count, wake watchers.
func (c *Coordinator) finishLocked(j *cjob, state, msg string) {
	if j.jstate != server.StateRunning {
		return
	}
	for seq := range j.state {
		if j.state[seq].leasedTo != "" {
			if w, ok := c.workers[j.state[seq].leasedTo]; ok {
				w.leased--
			}
			j.state[seq].leasedTo = ""
		}
	}
	if j.journal != nil {
		j.journal.Close()
		j.journal = nil
	}
	j.jstate = state
	j.jerr = msg
	if c.active[j.tenant] > 0 {
		c.active[j.tenant]--
	}
	j.bumpLocked()
}

// quotaLocked resolves the effective active-job ceiling for a tenant.
func (c *Coordinator) quotaLocked(tenant string) int {
	if max, ok := c.quotas[tenant]; ok {
		return max
	}
	return c.opts.MaxActive
}

// statusLocked renders the job in the single-node API's Status shape, so
// atrctl's watch/wait/status work against a coordinator unchanged.
func (c *Coordinator) statusLocked(j *cjob) server.Status {
	return server.Status{
		ID: j.id, State: j.jstate, Spec: j.spec, Grid: j.grid.Name,
		Total: len(j.units), Error: j.jerr,
		Progress: obs.SweepProgress{
			Done: j.done, Failed: j.failed, Resumed: j.fromCache, Total: len(j.units),
		},
		SubmittedAt: j.submittedAt,
	}
}

// Fleet snapshots the cluster view: registered workers and unit
// accounting across active jobs.
func (c *Coordinator) Fleet() obs.ClusterInfo {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	info := obs.ClusterInfo{Workers: make([]obs.ClusterWorker, 0, len(c.workers))}
	for _, id := range c.workerIDsLocked() {
		w := c.workers[id]
		info.Workers = append(info.Workers, obs.ClusterWorker{
			ID: w.id, Addr: w.addr, SimWorkers: w.simWorkers,
			AliveSeconds:    now.Sub(w.registeredAt).Seconds(),
			LastBeatSeconds: now.Sub(w.lastBeat).Seconds(),
			Leased:          w.leased, Done: w.done, Failed: w.failed,
		})
	}
	for _, id := range c.order {
		j := c.jobs[id]
		if j.jstate != server.StateRunning {
			continue
		}
		info.JobsActive++
		info.UnitsDone += j.done + j.failed
		for seq := range j.state {
			if j.recs[seq] != nil {
				continue
			}
			if j.state[seq].leasedTo != "" {
				info.UnitsLeased++
			} else {
				info.UnitsPending++
			}
		}
	}
	return info
}
