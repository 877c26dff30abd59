package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"spasm"
	"spasm/internal/service"
	"spasm/internal/service/client"
	"spasm/internal/service/store"
)

// svcWorkers fits the benchmark host: two simulation workers.  Each
// workload sets how many closed-loop clients drive them, each client
// holding one connection.
const svcWorkers = 2

type opKind int

const (
	opCold  opKind = iota // a spec the server has never computed
	opHit                 // a repeat the LRU answers
	opStore               // the first request after a restart, answered from disk
)

func (k opKind) String() string { return [...]string{"cold", "hit", "store"}[k] }

// svcStats accumulates the service traffic of a run.  Every timing in
// it is at the reference host speed (see speed.go).
type svcStats struct {
	tally
	// lat holds request latencies in ms, by opKind and then by
	// service round.
	lat [3][][]float64
	// overheadMS pairs each cold request with the direct RunSpec time of
	// the same spec: latency minus run time.
	overheadMS []float64
	coldRunMS  []float64
	setupS     []float64     // bare restarts on a populated store
	busy       time.Duration // time with the client loop running
	scrape     scrape
}

// scrape sums /metrics counters over every server lifetime.
type scrape struct {
	cacheHits, cacheMisses float64
	poolHits, poolMisses   float64
	// httpBuckets are the cumulative counts of the /v1/runs latency
	// histogram at httpBounds, then +Inf.
	httpBuckets []float64
}

// httpBounds are spasmd's latency histogram bounds, in seconds.
var httpBounds = []string{"0.001", "0.01", "0.1", "1", "10", "60", "+Inf"}

// node is one spasmd lifetime on a store directory.
type node struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	cl     *client.Client
}

// startNode opens the store, starts the server on loopback and opens
// one connection per client.  The returned duration is the set-up
// time the benchmark reports.
func startNode(dir string, clients int) (*node, time.Duration, error) {
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	srv := service.New(service.Config{Workers: svcWorkers, Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, 0, err
	}
	n := &node{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		tr: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	go func() {
		defer close(n.served)
		n.hs.Serve(ln)
	}()
	n.cl = client.New("http://" + ln.Addr().String())
	n.cl.HTTPClient = &http.Client{Transport: n.tr}
	// Concurrent health checks open every client connection, so the
	// first timed request does not pay for a TCP handshake.
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			_, err := n.cl.Healthz(context.Background())
			errs <- err
		}()
	}
	for i := 0; i < clients; i++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		n.stop()
		return nil, 0, err
	}
	return n, time.Since(t0), nil
}

func (n *node) stop() error {
	// Close the client side first.  A connection the transport dialled
	// but never sent a request on counts as active to the server, which
	// then holds Shutdown for five seconds before treating it as idle.
	n.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	<-n.served
	if e := n.srv.Shutdown(ctx); err == nil {
		err = e
	}
	return err
}

func (n *node) scrapeInto(sc *scrape) error {
	page, err := n.cl.Metrics(context.Background())
	if err != nil {
		return err
	}
	get := func(name string) float64 {
		v, _ := client.MetricValue(page, name)
		return v
	}
	sc.cacheHits += get("spasmd_cache_hits_total")
	sc.cacheMisses += get("spasmd_cache_misses_total")
	sc.poolHits += get("spasmd_pool_hits_total")
	sc.poolMisses += get("spasmd_pool_misses_total")
	if sc.httpBuckets == nil {
		sc.httpBuckets = make([]float64, len(httpBounds))
	}
	for i, b := range httpBounds {
		sc.httpBuckets[i] += get(fmt.Sprintf(`spasmd_http_request_duration_seconds_bucket{path="/v1/runs",le="%s"}`, b))
	}
	return nil
}

// answered is the set of specs the current server lifetime has
// answered, from which LRU repeats are drawn.
type answered struct {
	mu     sync.Mutex
	cond   *sync.Cond
	specs  []spasm.Spec
	broken bool // an answer failed: waiting for one may never end
}

func newAnswered() *answered {
	a := &answered{}
	a.cond = sync.NewCond(&a.mu)
	return a
}

func (a *answered) add(s spasm.Spec) {
	a.mu.Lock()
	a.specs = append(a.specs, s)
	a.mu.Unlock()
	a.cond.Broadcast()
}

func (a *answered) breakWaiters() {
	a.mu.Lock()
	a.broken = true
	a.mu.Unlock()
	a.cond.Broadcast()
}

func (a *answered) pick(rng *rand.Rand) (spasm.Spec, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.specs) == 0 && !a.broken {
		a.cond.Wait()
	}
	if len(a.specs) == 0 {
		return spasm.Spec{}, false
	}
	return a.specs[rng.Intn(len(a.specs))], true
}

type op struct {
	kind opKind
	spec spasm.Spec // unset for opHit: drawn from the answered set
}

// svcRound serves one run list through spasmd: the first coldBefore
// specs are computed, then the server restarts on the same store, and
// the stored specs are read back from disk while the rest are computed.
// Further restarts read every stored spec again.  LRU repeats follow
// every cold and store request.  direct holds the run list's RunDocs
// from the direct pass: every answer must match them byte for byte.
type svcRound struct {
	w      workload
	dir    string
	direct pass
	rng    *rand.Rand
	trace  bool
	speed  *speedo
	out    *svcStats
	mu     sync.Mutex // guards out, lat, coldKeys and cold
	// cold holds each spec's first (computed) answer.
	cold map[string][]byte
	// lat holds this round's latencies in ms by opKind, as measured
	// until the end of their server lifetime scales them.  coldKeys
	// names the specs of lat[opCold] in order.
	lat      [3][]float64
	coldKeys []string
}

func (r *svcRound) run(specs []spasm.Spec) error {
	split := min(r.w.svc.coldBefore, len(specs))
	var ops []op
	for _, s := range specs[:split] {
		ops = append(ops, op{kind: opCold, spec: s})
		ops = r.hits(ops)
	}
	done, err := r.life(ops)
	if err != nil {
		return err
	}
	after := specs[split:]
	for k := 0; k < r.w.svc.restarts; k++ {
		// Read back in a seeded order of the run list, not in the
		// timing-dependent order the answers arrived.
		var stored []spasm.Spec
		for _, s := range specs {
			if done[s.Key()] {
				stored = append(stored, s)
			}
		}
		r.rng.Shuffle(len(stored), func(i, j int) { stored[i], stored[j] = stored[j], stored[i] })
		ops = ops[:0]
		for i, s := range stored {
			ops = append(ops, op{kind: opStore, spec: s})
			ops = r.hits(ops)
			if k == 0 && i < len(after) {
				ops = append(ops, op{kind: opCold, spec: after[i]})
			}
		}
		if k == 0 {
			for _, s := range after[min(len(stored), len(after)):] {
				ops = append(ops, op{kind: opCold, spec: s})
			}
		}
		if done, err = r.life(ops); err != nil {
			return err
		}
	}
	return r.setups()
}

// setupRepeats is how many times each round times a bare restart.
const setupRepeats = 32

// setups times bare restarts on the round's populated store: store
// open, server start and connection warm-up, with no requests.
func (r *svcRound) setups() error {
	var setups []float64
	f, err := r.speed.around(1, func() error {
		for i := 0; i < setupRepeats; i++ {
			n, setup, err := startNode(r.dir, r.w.svc.clients)
			if err != nil {
				return err
			}
			setups = append(setups, setup.Seconds())
			if err := n.stop(); err != nil {
				return err
			}
		}
		return nil
	})
	for _, s := range setups {
		r.out.setupS = append(r.out.setupS, f*s)
	}
	return err
}

func (r *svcRound) hits(ops []op) []op {
	for i := 0; i < r.w.svc.hitsPer; i++ {
		ops = append(ops, op{kind: opHit})
	}
	return ops
}

// life runs ops on one server lifetime with the closed client loop and
// returns the keys of the specs it answered correctly with a computed
// or disk-read result.  It brings the lifetime's timings to the
// reference host speed.
func (r *svcRound) life(ops []op) (map[string]bool, error) {
	var n0 [3]int
	for k := range r.lat {
		n0[k] = len(r.lat[k])
	}
	var (
		stored map[string]bool
		busy   time.Duration
	)
	// The server's workers, handlers and clients share both cores, so
	// the probes run as many rings as there are workers.
	f, err := r.speed.around(svcWorkers, func() error {
		var err error
		stored, busy, err = r.serve(ops)
		return err
	})
	for k := range r.lat {
		for i := n0[k]; i < len(r.lat[k]); i++ {
			r.lat[k][i] *= f
		}
	}
	for i := n0[opCold]; i < len(r.lat[opCold]); i++ {
		run := r.direct.runMS[r.coldKeys[i]]
		r.out.coldRunMS = append(r.out.coldRunMS, run)
		r.out.overheadMS = append(r.out.overheadMS, r.lat[opCold][i]-run)
	}
	r.out.busy += time.Duration(f * float64(busy))
	return stored, err
}

// serve starts a server lifetime, runs ops on it and stops it.  It
// returns the time the client loop ran.
func (r *svcRound) serve(ops []op) (map[string]bool, time.Duration, error) {
	phases := [][]op{ops}
	if !r.w.svc.interleave {
		// Computations, then disk reads, then repeats, each in its own
		// phase, so that no latency is timed beside work of another
		// kind.  Repeats come last: they draw from the answered specs.
		phases = nil
		for _, k := range []opKind{opCold, opStore, opHit} {
			var phase []op
			for _, o := range ops {
				if o.kind == k {
					phase = append(phase, o)
				}
			}
			phases = append(phases, phase)
		}
	}
	n, _, err := startNode(r.dir, r.w.svc.clients)
	if err != nil {
		return nil, 0, err
	}
	ans := newAnswered()
	var (
		mu     sync.Mutex
		stored = map[string]bool{}
	)
	t0 := time.Now()
	for _, ops := range phases {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		for c := 0; c < r.w.svc.clients; c++ {
			rng := rand.New(rand.NewSource(r.rng.Int63()))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ops) {
						return
					}
					o := ops[i]
					if o.kind == opHit {
						var ok bool
						if o.spec, ok = ans.pick(rng); !ok {
							r.record(o, 0, errors.New("no answered spec to repeat"))
							continue
						}
					}
					lat, err := r.do(n.cl, o)
					r.record(o, lat, err)
					if err != nil {
						ans.breakWaiters()
						continue
					}
					if o.kind != opHit {
						ans.add(o.spec)
						mu.Lock()
						stored[o.spec.Key()] = true
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
	}
	busy := time.Since(t0)
	if r.trace {
		if err := n.scrapeInto(&r.out.scrape); err != nil {
			n.stop()
			return nil, 0, err
		}
	}
	return stored, busy, n.stop()
}

// do sends one request on the SSE path and checks the answer.
func (r *svcRound) do(cl *client.Client, o op) (time.Duration, error) {
	key := o.spec.Key()
	t0 := time.Now()
	st, err := cl.RunStream(context.Background(), service.RequestFromSpec(o.spec), nil)
	lat := time.Since(t0)
	switch {
	case err != nil:
		return lat, fmt.Errorf("%s %q: %w", o.kind, key, err)
	case st.State != service.StateDone:
		return lat, fmt.Errorf("%s %q: state %s (%s)", o.kind, key, st.State, st.Error)
	case st.Cached != (o.kind != opCold):
		return lat, fmt.Errorf("%s %q: cached=%t", o.kind, key, st.Cached)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if o.kind == opCold {
		if !bytes.Equal(st.Result, r.direct.docs[key]) {
			return lat, fmt.Errorf("cold %q: answer differs from the direct RunSpec document", key)
		}
		r.cold[key] = append([]byte(nil), st.Result...)
		return lat, nil
	}
	if !bytes.Equal(st.Result, r.cold[key]) {
		return lat, fmt.Errorf("%s %q: answer differs from the computed answer", o.kind, key)
	}
	return lat, nil
}

func (r *svcRound) record(o op, lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.attempted++
	if err != nil {
		r.out.fail(err)
		return
	}
	r.lat[o.kind] = append(r.lat[o.kind], ms(lat))
	if o.kind == opCold {
		r.coldKeys = append(r.coldKeys, o.spec.Key())
	}
}

// serviceRound serves specs through a fresh store directory under
// scratch and removes it afterwards.
func serviceRound(w workload, scratch string, specs []spasm.Spec, direct pass,
	rng *rand.Rand, trace bool, speed *speedo, out *svcStats) error {
	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &svcRound{w: w, dir: dir, direct: direct, rng: rng, trace: trace, speed: speed, out: out,
		cold: map[string][]byte{}}
	err = r.run(specs)
	for k, lat := range r.lat {
		out.lat[k] = append(out.lat[k], lat)
	}
	return err
}
