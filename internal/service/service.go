// Package service turns the spasm simulator into a long-lived
// simulation-as-a-service daemon: an HTTP JSON API over a job queue, a
// bounded worker pool, and a content-addressed result cache.
//
// The design leans on one property of the simulator: a run is a
// deterministic function of its canonical spec (spasm.Spec).  That makes
// specs content addresses — the job ID is the spec's SHA-256 — and it
// makes results safe to cache forever:
//
//   - Submitting a spec whose result is cached returns the stored,
//     byte-identical statistics immediately (a cache hit).
//   - Submitting a spec that is already queued or running coalesces onto
//     the in-flight job instead of simulating twice.
//   - Otherwise the job is queued and executed by one of a fixed pool of
//     workers (default GOMAXPROCS — each simulation is internally
//     single-threaded, so that saturates the host without oversubscribing).
//
// Figure and sweep requests decompose into their underlying runs, which
// flow through the same queue and cache; repeating a figure request
// re-simulates nothing.
//
// Completed results are held in an LRU cache bounded by entry count and,
// when Config.Store is set, persisted to a disk-backed store below it:
// byte-determinism makes results permanent, so a restarted daemon warms
// from disk instead of re-simulating.  The pending queue is shared
// fairly across tenants (weighted stride scheduling with per-tenant
// admission quotas), and runs can be followed live over SSE.  Hits,
// misses and evictions are exported on /metrics along with queue depth,
// worker utilization and per-endpoint latency histograms.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"sync"

	"spasm"
	"spasm/internal/faults"
	"spasm/internal/probe"
	"spasm/internal/report"
	"spasm/internal/service/store"
	"spasm/internal/stats"
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds simulation concurrency (default GOMAXPROCS;
	// each simulation is single-threaded, so this saturates the host).
	Workers int
	// CacheSize bounds the result cache, in entries (default 512).
	CacheSize int
	// QueueDepth bounds the pending-job queue (default 1024); Submit
	// fails with ErrQueueFull beyond it.
	QueueDepth int
	// RunTimeout bounds each job's wall-clock simulation time.  A run
	// past the deadline is aborted cooperatively (every simulated
	// process unwinds, nothing leaks) and the job fails with a timeout
	// error; its pooled run context is discarded rather than reused.
	// Zero (the default) means unbounded.
	RunTimeout time.Duration
	// NegativeCacheSize bounds the failed-result side cache, in entries
	// (default 64).  Failures are kept apart from successes so a burst
	// of bad specs cannot evict good results.
	NegativeCacheSize int
	// NegativeTTL is how long a cached failure is served before the
	// spec is retried (default 30s).  Deterministic failures come back
	// identical; failures caused by operational limits (timeouts) age
	// out and get a fresh chance.
	NegativeTTL time.Duration
	// Store, when set, is the durable result tier below the in-memory
	// LRU: completed runs (and their profiles) are written through to
	// it, and cache misses read through it before simulating.  Nil
	// (the default) keeps the daemon memory-only.
	Store *store.Store
	// MaxBodyBytes caps each request body (default 1 MiB); larger
	// submissions are rejected with HTTP 413.
	MaxBodyBytes int64
	// TenantWeights sets per-tenant fair-share weights (default 1 per
	// tenant): with a backlog, tenants receive worker dispatches in
	// proportion to weight.
	TenantWeights map[string]int
	// TenantQuotaRuns bounds one tenant's outstanding (queued plus
	// running) jobs; past it, submissions fail with ErrTenantQuota.
	// Zero (the default) means unlimited.
	TenantQuotaRuns int
	// TenantQuotaBytes bounds the sum of request-body bytes a tenant
	// may hold queued.  Zero (the default) means unlimited.
	TenantQuotaBytes int64
	// MaxTenants caps the distinct tenant buckets tracked (default
	// 256); further tenant names share one overflow bucket.
	MaxTenants int
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize < 1 {
		c.CacheSize = 512
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 1024
	}
	if c.NegativeCacheSize < 1 {
		c.NegativeCacheSize = 64
	}
	if c.NegativeTTL <= 0 {
		c.NegativeTTL = 30 * time.Second
	}
	if c.MaxBodyBytes < 1 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxTenants < 1 {
		c.MaxTenants = 256
	}
	return c
}

// State is a job's lifecycle state.
type State string

// Job lifecycle states, as reported by the API.
const (
	StatePending State = "pending"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	// StateCanceled marks a job dropped before execution because every
	// waiter abandoned it (see SubmitWaited).  Canceled outcomes are
	// never cached: they reflect client behaviour, not the spec.
	StateCanceled State = "canceled"
)

// Submission errors.
var (
	// ErrDraining is returned once Shutdown has begun.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrQueueFull is returned when the pending queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrUnknownRun is returned by Profile for an id that is neither
	// active nor cached.
	ErrUnknownRun = errors.New("service: no such run")
	// ErrRunActive is returned by Profile while the run is still
	// pending or running.
	ErrRunActive = errors.New("service: run not complete yet")
)

// Job is one queued, running, or completed simulation.  Its ID is the
// content address of its spec, so identical submissions share a Job.
type Job struct {
	id   string
	spec spasm.Spec
	req  RunRequest

	// tenant and bytes drive fair-share admission: the tenant bucket
	// the job queues under, and the request-body weight charged against
	// that tenant's byte quota while the job is pending.
	tenant string
	bytes  int64

	// state and entry are guarded by the owning Server's mutex; entry
	// is also safely readable by anyone who has observed done closed.
	state State
	entry *entry
	done  chan struct{}

	// hub, when non-nil, is the job's live event log: it exists only if
	// a streaming client attached while the job was still pending, and
	// its presence at dispatch makes the worker run the instrumented
	// path that emits per-epoch events.  Set under the Server's mutex
	// before the job reaches StateRunning; never replaced afterwards.
	hub *streamHub

	// cached marks a job answered straight from a cache — positive,
	// negative, or the disk store — so the HTTP layer can report 200
	// instead of 202.
	cached bool
	// waiters and pinned drive pre-execution cancellation: waiters
	// counts the SubmitWaited registrations still attached, and pinned
	// marks a job with at least one plain Submit (poll-based clients
	// never release, so their jobs are never canceled).  A pending job
	// whose last waiter releases — and that is not pinned — is dropped
	// before it burns a worker.  Guarded by the Server's mutex.
	waiters int
	pinned  bool
}

// ID returns the job's content address (the spec's SHA-256).
func (j *Job) ID() string { return j.id }

// Done is closed when the job completes (done or failed).
func (j *Job) Done() <-chan struct{} { return j.done }

// closedChan is the pre-closed done channel shared by cache-hit jobs.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Server owns the job queue, the worker pool, and the result cache.
// Create one with New, expose it with Handler, stop it with Shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics
	store   *store.Store // nil without a durable tier

	mu         sync.Mutex
	cond       *sync.Cond      // signals workers on fq.push and on drain
	active     map[string]*Job // pending + running jobs by ID
	cache      *lru            // completed successes (also guarded by mu)
	neg        *negCache       // completed failures, bounded + TTL'd (also guarded by mu)
	fq         *fairQueue      // pending jobs, weighted-fair across tenants
	draining   bool
	profFlight map[string]*profFlight // in-flight profile computations by ID

	// pool holds reusable run contexts shared by the workers, so the
	// daemon amortizes machine construction across the jobs it executes;
	// its hit/miss/live counters are exported on /metrics.
	pool *spasm.RunPool

	workers sync.WaitGroup
}

// profFlight is one in-flight profile computation.  The leader fills
// the result fields before closing done, so waiters read their answer
// from the flight itself — never from the cache entry, which the LRU
// may have evicted while the computation ran.
type profFlight struct {
	done chan struct{}
	prof *probe.Profile
	raw  []byte
	err  error
}

// New starts a Server with cfg.Workers worker goroutines.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	idle := 2 * cfg.Workers
	if idle < 16 {
		idle = 16
	}
	s := &Server{
		cfg:        cfg,
		metrics:    newMetrics(time.Now(), cfg.Workers),
		store:      cfg.Store,
		active:     make(map[string]*Job),
		cache:      newLRU(cfg.CacheSize),
		neg:        newNegCache(cfg.NegativeCacheSize, cfg.NegativeTTL),
		fq:         newFairQueue(cfg),
		profFlight: make(map[string]*profFlight),
		pool:       spasm.NewRunPool(idle),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// submitOpts carries the admission parameters of one submission.
type submitOpts struct {
	// tenant is the fair-share bucket ("" means DefaultTenant).
	tenant string
	// bytes is the request-body size charged against the tenant's byte
	// quota while the job is queued (0 for in-process submissions).
	bytes int64
	// pin marks a plain Submit: the job executes even if every waiter
	// departs.
	pin bool
	// stream creates the job's live event hub atomically with the job,
	// so the dispatching worker is guaranteed to see it and run the
	// instrumented path — a hub attached any later might miss the start.
	stream bool
}

// Submit registers a run for execution and returns its job plus whether
// the result was served from the (positive) cache.  An invalid spec
// fails immediately; an identical in-flight submission coalesces onto
// the existing job; a cached result — in memory or in the durable
// store — returns a completed job at once: successes report hit=true,
// remembered failures report hit=false with the job already failed and
// Job.cached set.  Jobs submitted this way are pinned: they execute
// even if every waiting client goes away (poll-based clients never
// signal departure).
func (s *Server) Submit(spec spasm.Spec) (job *Job, hit bool, err error) {
	return s.submit(spec, submitOpts{pin: true})
}

// SubmitWaited is Submit for clients that stay attached to the result:
// it registers the caller as a waiter and returns a release function
// the caller must invoke exactly once when it stops caring (normally
// deferred).  A pending job whose waiters all release — and that no
// plain Submit pinned — is canceled before it reaches a worker: its
// state becomes StateCanceled, Done closes, and nothing is cached.
// Jobs already running are never canceled (the simulation's cost is
// sunk; its deterministic result is worth keeping).
func (s *Server) SubmitWaited(spec spasm.Spec) (job *Job, hit bool, release func(), err error) {
	return s.submitWaited(spec, submitOpts{})
}

func (s *Server) submitWaited(spec spasm.Spec, opt submitOpts) (job *Job, hit bool, release func(), err error) {
	opt.pin = false
	j, hit, err := s.submit(spec, opt)
	if err != nil {
		return nil, false, nil, err
	}
	var once sync.Once
	return j, hit, func() { once.Do(func() { s.releaseWaiter(j) }) }, nil
}

func (s *Server) submit(spec spasm.Spec, opt submitOpts) (job *Job, hit bool, err error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return nil, false, &RequestError{Err: err}
	}
	if opt.tenant == "" {
		opt.tenant = DefaultTenant
	}
	id := spec.Hash()

	s.mu.Lock()
	if j, ok := s.active[id]; ok {
		if opt.pin {
			j.pinned = true
		} else {
			j.waiters++
		}
		if opt.stream && j.state == StatePending && j.hub == nil {
			j.hub = newStreamHub()
		}
		s.mu.Unlock()
		s.metrics.jobCoalesced()
		return j, false, nil
	}
	if e, ok := s.cache.get(id, true); ok {
		s.mu.Unlock()
		j := &Job{id: id, spec: spec, req: RequestFromSpec(spec), entry: e, done: closedChan, cached: true}
		j.state = StateDone
		return j, true, nil
	}
	if e, ok := s.storeLookupLocked(id); ok {
		// Durable tier hit: the run was computed by an earlier process.
		// The promoted entry serves exactly the bytes that process wrote,
		// and no worker is burned.
		s.mu.Unlock()
		j := &Job{id: id, spec: spec, req: RequestFromSpec(spec), entry: e, done: closedChan, cached: true}
		j.state = StateDone
		return j, true, nil
	}
	if e, ok := s.neg.get(id, time.Now(), true); ok {
		s.mu.Unlock()
		j := &Job{id: id, spec: spec, req: RequestFromSpec(spec), entry: e, done: closedChan, cached: true}
		j.state = StateFailed
		return j, false, nil
	}
	if s.draining {
		s.mu.Unlock()
		return nil, false, ErrDraining
	}
	j := &Job{id: id, spec: spec, req: RequestFromSpec(spec), state: StatePending,
		done: make(chan struct{}), tenant: opt.tenant, bytes: opt.bytes}
	if opt.pin {
		j.pinned = true
	} else {
		j.waiters = 1
	}
	if opt.stream {
		j.hub = newStreamHub()
	}
	if err := s.fq.push(j); err != nil {
		tenant := j.tenant
		s.mu.Unlock()
		if errors.Is(err, ErrTenantQuota) {
			s.metrics.tenantRejected(tenant)
		} else {
			s.metrics.jobRejected()
		}
		return nil, false, err
	}
	s.active[id] = j
	s.cond.Signal()
	s.mu.Unlock()
	s.metrics.jobSubmitted()
	s.metrics.tenantSubmitted(j.tenant)
	return j, false, nil
}

// storeLookupLocked reads id through the durable store, promoting a hit
// into the in-memory LRU.  Must be called with s.mu held (the disk read
// is one small file; simulations dwarf it).
func (s *Server) storeLookupLocked(id string) (*entry, bool) {
	if s.store == nil {
		return nil, false
	}
	rec, ok := s.store.Get(id)
	if !ok {
		return nil, false
	}
	var req RunRequest
	if err := json.Unmarshal(rec.Spec, &req); err != nil {
		return nil, false
	}
	e := &entry{id: id, req: req, doc: rec.Doc}
	if len(rec.Stats) > 0 {
		var st stats.Run
		if err := json.Unmarshal(rec.Stats, &st); err == nil {
			e.stats = &st
		}
	}
	s.cache.add(e)
	return e, true
}

// storeWrite persists a successful run record (and its profile, when
// one was materialized).  Runs on the worker goroutine, outside the
// server mutex — fsync is the slow part.  Store failures never fail the
// job: the result stays served from memory and the store's own error
// counter records the miss of durability.
func (s *Server) storeWrite(e *entry) {
	if s.store == nil || e.err != "" || len(e.doc) == 0 {
		return
	}
	rec := store.Record{ID: e.id, Doc: e.doc}
	if specJSON, err := json.Marshal(e.req); err == nil {
		rec.Spec = specJSON
	}
	if e.stats != nil {
		// Wall is host wall-clock — the one non-deterministic field — so
		// it is zeroed in the durable record to keep it spec-pure.
		st := *e.stats
		st.Wall = 0
		if stJSON, err := json.Marshal(&st); err == nil {
			rec.Stats = stJSON
		}
	}
	s.store.Put(rec)
	if len(e.profBytes) > 0 {
		s.store.PutProfile(e.id, e.profBytes)
	}
}

// releaseWaiter detaches one SubmitWaited (or stream) registration from
// j.  When the last waiter of an unpinned, still-pending job departs,
// the job is canceled in place: it leaves the active set and the fair
// queue (so a later identical submission starts fresh) and its Done
// closes.  Nothing is cached.
func (s *Server) releaseWaiter(j *Job) {
	s.mu.Lock()
	j.waiters--
	if j.waiters > 0 || j.pinned || j.state != StatePending {
		s.mu.Unlock()
		return
	}
	j.state = StateCanceled
	j.entry = &entry{id: j.id, req: j.req, err: "canceled: every waiter abandoned the job before execution", canceled: true}
	s.fq.remove(j)
	delete(s.active, j.id)
	hub, e := j.hub, j.entry
	s.mu.Unlock()
	s.metrics.jobCanceled() // counted before anyone can see the job end
	close(j.done)
	if hub != nil {
		hub.publish(eventResult, statusFromEntry(e, false))
		hub.finish()
	}
}

// nextJob blocks until a job is dispatchable or the drained queue shuts
// down.  Marking the job running happens under the same mutex as the
// dispatch itself, so waiter cancellation (which only touches
// StatePending jobs) can never race a worker pick-up.
func (s *Server) nextJob() (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.fq.pop(); j != nil {
			j.state = StateRunning
			return j, true
		}
		if s.draining {
			return nil, false
		}
		s.cond.Wait()
	}
}

// worker executes queued jobs until the queue drains at shutdown.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		// The stall fires before the worker commits to a job, so a job
		// queued behind a stalled worker is still pending — and still
		// cancelable.
		faults.Fire(faults.WorkerStall)
		job, ok := s.nextJob()
		if !ok {
			return
		}
		s.metrics.workerBusy(1)
		s.execute(job)
		s.metrics.workerBusy(-1)
	}
}

// execute runs one dispatched job to completion.  Jobs with a live
// stream hub (and a non-adaptive spec) run the instrumented path: the
// probe's epoch emissions feed the hub as the simulation executes, and
// the finished profile is memoized so the first /profile request after
// a streamed run is free.  Everything else runs the plain path.
func (s *Server) execute(job *Job) {
	hub := job.hub
	if hub != nil {
		hub.publish(eventState, RunStatus{ID: job.id, State: StateRunning, Spec: job.req})
	}

	e := &entry{id: job.id, req: job.req}
	var res *spasm.Result
	var prof *probe.Profile
	var err error
	if hub != nil && !job.spec.Adaptive {
		res, prof, err = runSpecProfiledSafely(job.spec, s.pool, s.cfg.RunTimeout,
			func(ev probe.EpochEvent) {
				hub.publish(eventEpoch, streamEpoch(ev))
				s.metrics.streamEventEmitted()
			})
	} else {
		res, err = runSpecSafely(job.spec, s.pool, s.cfg.RunTimeout)
	}
	if err == nil && res.Escalation != nil && res.Escalation.Tripped {
		s.metrics.runEscalated()
	}
	if err == nil {
		if err = faults.Fire(faults.Marshal); err == nil {
			var doc []byte
			doc, err = json.Marshal(report.RunJSON(res))
			if err == nil {
				e.doc = doc
				e.stats = res.Stats
			}
		}
	}
	if err == nil && prof != nil {
		var buf bytes.Buffer
		if _, encErr := prof.Encode(&buf); encErr == nil {
			e.prof, e.profBytes = prof, buf.Bytes()
		}
	}
	timedOut := errors.Is(err, spasm.ErrRunTimeout)
	if err != nil {
		e.err = err.Error()
	}
	// Persist before publishing: once a client has seen "done", the
	// record survives an immediate restart.
	s.storeWrite(e)
	s.finish(job, e, timedOut)
}

// runSpecSafely shields the daemon from panicking simulations: invalid
// topology/processor combinations (and any future simulator bug) fail
// the one job — deterministically, so the failure is cacheable — rather
// than killing the server.  Runs execute on the server's context pool
// under the configured wall-clock deadline; pooled runs are bit-identical
// to fresh ones, and the RunDoc the worker stores is derived from the
// result's freshly allocated statistics, so nothing cached aliases
// pooled state.  A run that fails — aborted, panicked, or otherwise —
// discards its pooled context instead of returning it (half-finished
// simulation state never re-enters the pool).
func runSpecSafely(spec spasm.Spec, pool *spasm.RunPool, timeout time.Duration) (res *spasm.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("run panicked: %v", r)
		}
	}()
	if err := faults.Fire(faults.RunExec); err != nil {
		return nil, err
	}
	return spasm.RunSpecControlled(spec, pool, spasm.RunControl{Timeout: timeout})
}

// runSpecProfiledSafely is runSpecSafely on the instrumented path: the
// probe attaches to the run and onEpoch fires live as epochs close.
// Profiled results are bit-identical to plain ones (profiling does not
// perturb), so the cached RunDoc is the same either way.
func runSpecProfiledSafely(spec spasm.Spec, pool *spasm.RunPool, timeout time.Duration,
	onEpoch func(probe.EpochEvent)) (res *spasm.Result, prof *probe.Profile, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, prof, err = nil, nil, fmt.Errorf("run panicked: %v", r)
		}
	}()
	if err := faults.Fire(faults.RunExec); err != nil {
		return nil, nil, err
	}
	return spasm.RunSpecProfiledControlled(spec, pool,
		spasm.RunControl{Timeout: timeout}, spasm.ProfileConfig{OnEpoch: onEpoch})
}

// finish publishes a job's result: successes into the result cache,
// failures into the bounded negative cache, the job out of the active
// set and its tenant's run quota, and the outcome to anyone blocked on
// Done or subscribed to the stream.
func (s *Server) finish(job *Job, e *entry, timedOut bool) {
	s.mu.Lock()
	job.entry = e
	if e.err != "" {
		job.state = StateFailed
		s.neg.add(e, time.Now())
	} else {
		job.state = StateDone
		s.cache.add(e)
	}
	s.fq.jobDone(job)
	delete(s.active, job.id)
	s.mu.Unlock()
	// Count the outcome before publishing it, so anyone who has seen the
	// job finish also sees it in the metrics.
	s.metrics.jobFinished(e.err == "", timedOut)
	close(job.done)
	if job.hub != nil {
		job.hub.publish(eventResult, statusFromEntry(e, false))
		job.hub.finish()
	}
}

// Wait blocks until the job completes or ctx is cancelled, then returns
// its final status.
func (s *Server) Wait(ctx context.Context, j *Job) (RunStatus, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return RunStatus{}, ctx.Err()
	}
	return statusFromEntry(j.entry, false), nil
}

// Status reports a job by ID: an active (pending/running) job, or a
// completed one still in the result cache (successes), the negative
// cache (unexpired failures), or the durable store.
func (s *Server) Status(id string) (RunStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.active[id]; ok {
		return RunStatus{ID: j.id, State: j.state, Spec: j.req}, true
	}
	if e, ok := s.cache.get(id, false); ok {
		return statusFromEntry(e, false), true
	}
	if e, ok := s.neg.get(id, time.Now(), false); ok {
		return statusFromEntry(e, false), true
	}
	if e, ok := s.storeLookupLocked(id); ok {
		return statusFromEntry(e, false), true
	}
	return RunStatus{}, false
}

// runStats submits a spec (deduplicated and cached like any other
// submission) and blocks for its statistics — the execution path behind
// figure and sweep requests, injected into exp.Session as its Runner.
// It registers as a releasable waiter: when the request's context dies
// before the job runs, the release lets the server cancel the pending
// work instead of simulating for nobody.
func (s *Server) runStats(ctx context.Context, spec spasm.Spec, tenant string) (*stats.Run, error) {
	j, _, release, err := s.submitWaited(spec, submitOpts{tenant: tenant})
	if err != nil {
		return nil, err
	}
	defer release()
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if j.entry.err != "" {
		return nil, fmt.Errorf("service: run %s: %s", j.id[:12], j.entry.err)
	}
	return j.entry.stats, nil
}

// Profile returns a completed run's time-resolved telemetry: the
// decoded profile and its canonical binary encoding (byte-identical on
// every call for the same spec).  The profile is computed on first
// request — by re-running the spec with the probe attached, which is
// sound because profiles are deterministic — and memoized on the run's
// cache entry (streamed runs arrive pre-memoized; the durable store
// warms it across restarts).  Concurrent requests for the same id
// coalesce onto one computation (singleflight): waiters block on the
// leader and read the flight's own result, so an LRU eviction racing
// the computation can neither lose the answer nor double-count the
// derivation.  It returns ErrUnknownRun for ids that are neither active
// nor cached, ErrRunActive while the run is still in flight, and the
// run's own error for failed runs.
func (s *Server) Profile(id string) (*probe.Profile, []byte, error) {
	// Each request is counted exactly once: a hit (memoized encoding was
	// already there), a miss (this request computed it), or coalesced
	// (waited on another request's computation).
	s.mu.Lock()
	if _, ok := s.active[id]; ok {
		s.mu.Unlock()
		return nil, nil, ErrRunActive
	}
	if fl, inFlight := s.profFlight[id]; inFlight {
		// Join the in-flight computation before consulting the cache:
		// the flight proves the run exists even if the LRU has since
		// evicted its entry, and the flight's own fields carry the answer.
		s.mu.Unlock()
		s.metrics.profileCoalesced()
		<-fl.done
		return fl.prof, fl.raw, fl.err
	}
	e, ok := s.cache.get(id, false)
	if !ok {
		e, ok = s.storeLookupLocked(id)
	}
	if ok && e.err == "" && e.prof == nil && s.store != nil {
		// The store may also hold the run's encoded profile (written by a
		// past process, or by this one before an eviction); decoding it
		// here turns the request into a cache hit instead of a re-run.
		if raw, hit := s.store.GetProfile(id); hit {
			if prof, err := probe.Decode(bytes.NewReader(raw)); err == nil {
				e.prof, e.profBytes = prof, raw
			}
		}
	}
	if !ok {
		if ne, negOK := s.neg.get(id, time.Now(), false); negOK {
			s.mu.Unlock()
			return nil, nil, fmt.Errorf("service: run %s failed: %s", id[:12], ne.err)
		}
		s.mu.Unlock()
		return nil, nil, ErrUnknownRun
	}
	if e.err != "" {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("service: run %s failed: %s", id[:12], e.err)
	}
	if e.prof != nil {
		prof, raw := e.prof, e.profBytes
		s.mu.Unlock()
		s.metrics.profileServed(true)
		return prof, raw, nil
	}
	fl := &profFlight{done: make(chan struct{})}
	s.profFlight[id] = fl
	req := e.req
	s.mu.Unlock()
	s.metrics.profileServed(false)

	fl.prof, fl.raw, fl.err = computeProfile(req)
	if fl.err == nil && s.store != nil {
		s.store.PutProfile(id, fl.raw)
	}

	// Memoize on the entry if it is still cached, then release the
	// flight so waiters can read the result.
	s.mu.Lock()
	if fl.err == nil {
		if e, ok := s.cache.get(id, false); ok && e.prof == nil {
			e.prof, e.profBytes = fl.prof, fl.raw
		}
	}
	delete(s.profFlight, id)
	s.mu.Unlock()
	close(fl.done)
	return fl.prof, fl.raw, fl.err
}

// computeProfile derives a run's profile from its request: re-run the
// spec instrumented, then encode the profile canonically.
func computeProfile(req RunRequest) (*probe.Profile, []byte, error) {
	spec, err := req.Spec()
	if err != nil {
		return nil, nil, err
	}
	prof, err := profileSpecSafely(spec)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if _, err := prof.Encode(&buf); err != nil {
		return nil, nil, err
	}
	return prof, buf.Bytes(), nil
}

// profileSpecSafely shields the daemon from panicking instrumented runs,
// exactly like runSpecSafely does for plain runs.
func profileSpecSafely(spec spasm.Spec) (prof *probe.Profile, err error) {
	defer func() {
		if r := recover(); r != nil {
			prof, err = nil, fmt.Errorf("profiled run panicked: %v", r)
		}
	}()
	_, prof, err = spasm.RunSpecProfiled(spec)
	return prof, err
}

// QueueDepth reports the number of jobs waiting for a worker.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fq.size
}

// Shutdown stops accepting new jobs and drains the queue: every job
// already accepted — queued or in flight — completes before Shutdown
// returns (or ctx expires).  Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RequestError marks a client-side (HTTP 400) submission error.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }
