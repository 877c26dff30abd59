package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spasm"
	"spasm/internal/report"
	"spasm/internal/service"
	"spasm/internal/service/client"
)

func newTestService(t *testing.T, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return svc, client.New(ts.URL)
}

// TestEndToEnd drives the full service loop over HTTP: submit a run,
// poll it to completion, check the statistics are byte-identical to a
// direct spasm.Run of the same spec, and check that an identical
// resubmission is a cache hit visible on /metrics.
func TestEndToEnd(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 2, CacheSize: 64})
	ctx := context.Background()

	req := service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", Topology: "full", P: 4}
	st, err := cl.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("run finished %s (%s)", st.State, st.Error)
	}

	// Byte-identical to a direct run of the same canonical spec.
	direct, err := spasm.RunSpec(spasm.Spec{
		App: "fft", Scale: spasm.Tiny, Seed: 1, Machine: spasm.Target, Topology: "full", P: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(report.RunJSON(direct))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Result, want) {
		t.Fatalf("service result differs from direct run:\n  service %s\n  direct  %s", st.Result, want)
	}

	// An identical resubmission is served from the cache, immediately
	// done, byte-identical again.
	st2, err := cl.SubmitRun(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != service.StateDone || !st2.Cached {
		t.Fatalf("resubmission: state=%s cached=%v, want done/cached", st2.State, st2.Cached)
	}
	if st2.ID != st.ID {
		t.Fatalf("content addressing broken: IDs %s vs %s", st.ID, st2.ID)
	}
	if !bytes.Equal(st2.Result, want) {
		t.Fatalf("cached result not byte-identical")
	}

	page, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hits, ok := client.MetricValue(page, "spasmd_cache_hits_total"); !ok || hits < 1 {
		t.Fatalf("cache hits = %v (present=%v), want >= 1\n%s", hits, ok, page)
	}
	if misses, ok := client.MetricValue(page, "spasmd_cache_misses_total"); !ok || misses < 1 {
		t.Fatalf("cache misses = %v (present=%v), want >= 1", misses, ok)
	}

	if h, err := cl.Healthz(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %+v, %v", h, err)
	}
}

// TestFigureEndpoint checks that a figure request decomposes into pooled
// runs and matches a direct experiment session, and that repeating it
// re-simulates nothing (every underlying run hits the cache).
func TestFigureEndpoint(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 4})
	ctx := context.Background()
	opts := client.SweepOpts{Scale: "tiny", Procs: []int{2, 4}}

	fig, err := cl.Figure(ctx, 7, opts) // IS on Mesh: Contention
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("got %d series, want 3 (logp, clogp, target)", len(fig.Series))
	}

	sess := spasm.NewSession(spasm.Options{Scale: spasm.Tiny, Procs: []int{2, 4}})
	f, err := spasm.FigureByNumber(7)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := sess.Figure(f)
	if err != nil {
		t.Fatal(err)
	}
	want := report.FigureJSON(fr)
	for i, s := range want.Series {
		for j, pt := range s.Points {
			got := fig.Series[i].Points[j]
			if got.P != pt.P || got.ValueUS != pt.ValueUS {
				t.Fatalf("series %s point %d: service (p=%d, %v), direct (p=%d, %v)",
					s.Machine, j, got.P, got.ValueUS, pt.P, pt.ValueUS)
			}
		}
	}

	before, _ := cl.Metrics(ctx)
	misses0, _ := client.MetricValue(before, "spasmd_cache_misses_total")
	if _, err := cl.Figure(ctx, 7, opts); err != nil {
		t.Fatal(err)
	}
	after, _ := cl.Metrics(ctx)
	misses1, _ := client.MetricValue(after, "spasmd_cache_misses_total")
	if misses1 != misses0 {
		t.Fatalf("repeated figure caused %v new cache misses, want 0", misses1-misses0)
	}
}

// TestSweepEndpoint exercises the ad-hoc sweep surface, including an
// extension workload on an extension topology.
func TestSweepEndpoint(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 4})
	fig, err := cl.Sweep(context.Background(), "mg", "torus", "exec",
		client.SweepOpts{Scale: "tiny", Procs: []int{2, 4}, Machines: []string{"logp", "target"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 || len(fig.Series[0].Points) != 2 {
		t.Fatalf("sweep shape: %d series x %d points, want 2x2", len(fig.Series), len(fig.Series[0].Points))
	}
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.ValueUS <= 0 {
				t.Fatalf("machine %s p=%d: non-positive execution time %v", s.Machine, pt.P, pt.ValueUS)
			}
		}
	}
}

// TestValidation: malformed submissions are rejected with 400s, unknown
// runs with 404s.
func TestValidation(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 1})
	ctx := context.Background()
	for _, req := range []service.RunRequest{
		{App: "no-such-app", P: 2},
		{App: "fft", P: 0},
		{App: "fft", P: 2, Scale: "giant"},
		{App: "fft", P: 2, Machine: "quantum"},
	} {
		if _, err := cl.SubmitRun(ctx, req); err == nil {
			t.Fatalf("request %+v accepted, want 400", req)
		}
	}
	if _, err := cl.GetRun(ctx, "deadbeef"); err == nil {
		t.Fatal("unknown run ID returned a status, want 404")
	}
	if _, err := cl.Figure(ctx, 99, client.SweepOpts{}); err == nil {
		t.Fatal("figure 99 accepted, want 404")
	}
}

// TestFailedRunIsCached: a spec that fails deterministically (FFT needs
// enough data per processor) reports failed, and the failure itself is
// content-addressed so resubmission doesn't re-simulate.
func TestFailedRunIsCached(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 1})
	ctx := context.Background()
	req := service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", P: 3} // the paper's platforms need a power-of-two p
	st, err := cl.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == service.StateDone {
		t.Skip("p=3 unexpectedly valid for fft/tiny; nothing to assert")
	}
	if st.Error == "" {
		t.Fatal("failed run carries no error")
	}
	st2, err := cl.SubmitRun(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != service.StateFailed || !st2.Cached {
		t.Fatalf("failed resubmission: state=%s cached=%v, want failed/cached", st2.State, st2.Cached)
	}
}

// TestConcurrentSubmissions hammers the queue from many goroutines with
// overlapping specs (run with -race in CI): every submission resolves,
// identical specs coalesce onto identical results, and only one
// simulation per distinct spec is ever executed.
func TestConcurrentSubmissions(t *testing.T) {
	svc, cl := newTestService(t, service.Config{Workers: 4, CacheSize: 64})
	ctx := context.Background()

	specs := []service.RunRequest{
		{App: "ep", Scale: "tiny", Machine: "logp", P: 2},
		{App: "ep", Scale: "tiny", Machine: "logp", P: 4},
		{App: "is", Scale: "tiny", Machine: "clogp", Topology: "mesh", P: 4},
		{App: "fft", Scale: "tiny", Machine: "target", Topology: "cube", P: 4},
	}
	const clients = 8
	results := make([][]*service.RunStatus, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for _, req := range specs {
					st, err := cl.Run(ctx, req)
					if err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					results[c] = append(results[c], st)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Identical specs produced byte-identical results everywhere.
	byID := map[string][]byte{}
	for _, rs := range results {
		for _, st := range rs {
			if st.State != service.StateDone {
				t.Fatalf("run %s: %s (%s)", st.ID, st.State, st.Error)
			}
			if prev, ok := byID[st.ID]; ok {
				if !bytes.Equal(prev, st.Result) {
					t.Fatalf("run %s: divergent results across clients", st.ID)
				}
			} else {
				byID[st.ID] = st.Result
			}
		}
	}
	if len(byID) != len(specs) {
		t.Fatalf("got %d distinct results, want %d", len(byID), len(specs))
	}

	// Coalescing + caching: exactly one simulation per distinct spec.
	page, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	done, _ := client.MetricValue(page, "spasmd_jobs_done_total")
	if int(done) != len(specs) {
		t.Fatalf("executed %v jobs for %d distinct specs (coalescing/cache broken)\n%s", done, len(specs), page)
	}
	if svc.QueueDepth() != 0 {
		t.Fatalf("queue not drained: depth %d", svc.QueueDepth())
	}
}

// TestShutdownDrains: jobs accepted before Shutdown complete; new
// submissions are refused while draining.
func TestShutdownDrains(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	spec := spasm.Spec{App: "ep", Scale: spasm.Tiny, Machine: spasm.LogP, P: 2}
	j, _, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("Shutdown returned before the accepted job completed")
	}
	st, err := svc.Wait(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("drained job %s (%s), want done", st.State, st.Error)
	}
	if _, _, err := svc.Submit(spasm.Spec{App: "is", Scale: spasm.Tiny, Machine: spasm.LogP, P: 2}); err != service.ErrDraining {
		t.Fatalf("submission while draining: err=%v, want ErrDraining", err)
	}
	// A cached spec is still answerable during/after drain.
	if _, hit, err := svc.Submit(spec); err != nil || !hit {
		t.Fatalf("cached spec during drain: hit=%v err=%v, want hit", hit, err)
	}
}

// TestAdaptiveRunOverWire drives an adaptive-fidelity submission through
// the HTTP API: the wire fields survive the spec round trip, the RunDoc
// carries the escalation record, and the escalation shows up on
// /metrics as spasmd_runs_escalated_total.
func TestAdaptiveRunOverWire(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 1, CacheSize: 8})
	ctx := context.Background()

	req := service.RunRequest{App: "fft", Scale: "tiny", Machine: "flow",
		Topology: "mesh", P: 8, Adaptive: true, EscalatePct: 0}
	st, err := cl.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("adaptive run finished %s (%s)", st.State, st.Error)
	}
	if !st.Spec.Adaptive || st.Spec.Machine != "flow" {
		t.Fatalf("spec echo lost the adaptive fields: %+v", st.Spec)
	}
	var doc report.RunDoc
	if err := json.Unmarshal(st.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Escalation == nil || !doc.Escalation.Tripped ||
		doc.Escalation.From != "flow" || doc.Escalation.To != "target" {
		t.Fatalf("RunDoc escalation = %+v, want tripped flow->target", doc.Escalation)
	}

	page, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(page), []byte("spasmd_runs_escalated_total 1")) {
		t.Fatalf("metrics page missing spasmd_runs_escalated_total 1:\n%s", page)
	}
}

// TestParallelRunOverWire drives the workers wire field end to end: the
// field is accepted and ignored, so a LogP run with workers has a RunDoc
// byte-identical to a run of the same spec without it (and carries no
// host block), the content address ignores workers, and the retired
// parallel-kernel counters are gone from /metrics.  An over-limit worker
// count is still rejected.
func TestParallelRunOverWire(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 1, CacheSize: 16})
	ctx := context.Background()

	req := service.RunRequest{App: "fft", Scale: "tiny", Machine: "logp",
		Topology: "mesh", P: 8, Workers: 4}
	st, err := cl.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("workers run finished %s (%s)", st.State, st.Error)
	}
	seq := req
	seq.Workers = 0
	seqSpec, err := seq.Spec()
	if err != nil {
		t.Fatal(err)
	}
	parSpec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if seqSpec.Hash() != parSpec.Hash() {
		t.Fatalf("workers changed the content address: %s vs %s", seqSpec.Hash(), parSpec.Hash())
	}
	direct, err := spasm.RunSpec(seqSpec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(report.RunJSON(direct))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Result, want) {
		t.Fatalf("workers RunDoc diverged:\nwithout: %s\nwith:    %s", want, st.Result)
	}
	if bytes.Contains(st.Result, []byte(`"host"`)) {
		t.Fatalf("cached RunDoc leaked host-side measurements: %s", st.Result)
	}

	page, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"spasmd_runs_parallel_total", "spasmd_par_fallbacks_total"} {
		if bytes.Contains([]byte(page), []byte(gone)) {
			t.Fatalf("metrics page still exports %s:\n%s", gone, page)
		}
	}
	if !bytes.Contains([]byte(page), []byte(`spasmd_pool_contexts_live{kind="logp"}`)) {
		t.Fatalf("metrics page missing per-kind pool gauges:\n%s", page)
	}

	// An over-limit worker count is rejected at validation.
	bad := service.RunRequest{App: "fft", Scale: "tiny", P: 8, Workers: spasm.MaxWorkers + 1}
	if _, err := cl.Run(ctx, bad); err == nil {
		t.Fatal("service accepted workers beyond the limit")
	}
}
