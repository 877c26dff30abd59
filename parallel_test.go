package spasm

// Host-parallelism determinism lock: simulations run concurrently on
// host goroutines — which share the kernel's pool of process coroutines
// — must produce byte-identical report documents to the same runs made
// one at a time, and Spec.Workers, accepted for compatibility, must
// change nothing.  Parallelism is an execution detail, never a source of
// divergence.

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"spasm/internal/report"
	"spasm/internal/sim"
)

// parallelCombos enumerates the (kind, topology) pairs checked by
// TestParallelRunsBitIdentical: the latency-bound machines across the
// full topology set, plus the ideal machine (which has no network at
// all).  The coherent machines are covered by
// TestParallelFallbackBitIdentical.
func parallelCombos() []struct {
	kind Kind
	topo string
} {
	var combos []struct {
		kind Kind
		topo string
	}
	for _, kind := range []Kind{LogP, Flow} {
		for _, topo := range []string{"full", "cube", "mesh", "ring", "torus"} {
			combos = append(combos, struct {
				kind Kind
				topo string
			}{kind, topo})
		}
	}
	combos = append(combos, struct {
		kind Kind
		topo string
	}{Ideal, "full"})
	return combos
}

// TestParallelRunsBitIdentical runs every application on every combo once
// alone, then again on two goroutines at once with Workers 2 and 4, and
// requires byte-identical RunDocs.
func TestParallelRunsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full Tiny suite x machine/topology combos, run twice concurrently")
	}
	pool := NewRunPool(0)
	for _, app := range Apps() {
		for _, c := range parallelCombos() {
			checkConcurrentIdentical(t, pool,
				Spec{App: app, Scale: Tiny, Machine: c.kind, Topology: c.topo, P: 8})
		}
	}
}

// TestParallelFallbackBitIdentical applies the same check to the
// coherence-modelling machines (Target and CLogP), whose minimum
// cross-process latency is zero: Workers must change nothing there
// either, alone or with another run sharing the coroutine pool.
func TestParallelFallbackBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("Tiny suite on the coherent machines, run twice concurrently")
	}
	pool := NewRunPool(0)
	for _, app := range Apps() {
		for _, kind := range []Kind{Target, CLogP} {
			checkConcurrentIdentical(t, pool, Spec{App: app, Scale: Tiny, Machine: kind, P: 8})
		}
	}
}

// checkConcurrentIdentical runs spec alone, then twice at once on two
// goroutines with Workers 2 and 4, and fails unless all three RunDocs are
// byte-identical.
func checkConcurrentIdentical(t *testing.T, pool *RunPool, spec Spec) {
	t.Helper()
	seq, err := RunSpecControlled(spec, pool, RunControl{})
	if err != nil {
		t.Fatalf("alone %s on %v/%s: %v", spec.App, spec.Machine, spec.Topology, err)
	}
	want, err := json.Marshal(report.RunJSON(seq))
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := range got {
		pspec := spec
		pspec.Workers = 2 * (k + 1)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res, err := RunSpecControlled(pspec, pool, RunControl{})
			if err == nil {
				got[k], err = json.Marshal(report.RunJSON(res))
			}
			errs[k] = err
		}(k)
	}
	wg.Wait()
	for k := range got {
		if errs[k] != nil {
			t.Fatalf("concurrent %s on %v/%s: %v", spec.App, spec.Machine, spec.Topology, errs[k])
		}
		if !bytes.Equal(got[k], want) {
			t.Fatalf("concurrent run %d of %s on %v/%s diverged\nalone:      %s\nconcurrent: %s",
				k, spec.App, spec.Machine, spec.Topology, want, got[k])
		}
	}
}

// TestWorkersOutsideSpecIdentity asserts the content-address contract:
// Workers is an execution knob, not run identity — it must not perturb
// Key or Hash.
func TestWorkersOutsideSpecIdentity(t *testing.T) {
	base := Spec{App: "fft", Scale: Tiny, Machine: LogP, P: 8}
	with := base
	with.Workers = 8
	if base.Key() != with.Key() {
		t.Fatalf("Workers leaked into Spec.Key:\n%s\n%s", base.Key(), with.Key())
	}
	if base.Hash() != with.Hash() {
		t.Fatalf("Workers leaked into Spec.Hash")
	}
	neg := base
	neg.Workers = -3
	if neg.Canonical().Workers != 0 {
		t.Fatalf("Canonical did not clamp negative Workers: %d", neg.Canonical().Workers)
	}
	bad := base
	bad.Workers = MaxWorkers + 1
	if err := bad.Validate(); err == nil {
		t.Fatalf("Validate accepted Workers=%d", bad.Workers)
	}
}

// TestParallelAbortChaos interrupts runs mid-flight — by wall-clock
// timeout and by cancellation at varying points — while a second stream
// of the same runs shares the pool and the coroutine freelist on another
// goroutine, and checks the failure-containment contract: every
// simulated process unwinds and returns its carrier (no goroutine leaks),
// each aborted run's pooled context is discarded rather than returned,
// and a subsequent clean run on the same pool still produces
// bit-identical results.
func TestParallelAbortChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated aborted runs")
	}
	live := func() int { return runtime.NumGoroutine() - sim.IdleCarriers() }
	base := live()
	pool := NewRunPool(0)
	spec := Spec{App: "cholesky", Scale: Tiny, Machine: LogP, Topology: "mesh", P: 8, Workers: 4}

	// abuse aborts a series of runs: deadlines from "immediately" to
	// "well into the run", then cancellations raced from a goroutine.
	abuse := func() (timeouts, cancels int, err error) {
		for _, d := range []time.Duration{
			50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond,
			5 * time.Millisecond, 20 * time.Millisecond,
		} {
			_, err := RunSpecControlled(spec, pool, RunControl{Timeout: d})
			switch {
			case err == nil: // deadline landed after completion
			case errors.Is(err, ErrRunTimeout):
				timeouts++
			default:
				return 0, 0, err
			}
		}
		for i := 0; i < 5; i++ {
			cancel := make(chan struct{})
			go func(delay time.Duration) {
				time.Sleep(delay)
				close(cancel)
			}(time.Duration(i) * 500 * time.Microsecond)
			_, err := RunSpecControlled(spec, pool, RunControl{Cancel: cancel})
			switch {
			case err == nil:
			case errors.Is(err, ErrRunCanceled):
				cancels++
			default:
				return 0, 0, err
			}
		}
		return timeouts, cancels, nil
	}
	type tally struct {
		timeouts, cancels int
		err               error
	}
	tallies := make([]tally, 2)
	var wg sync.WaitGroup
	for k := range tallies {
		wg.Add(1)
		go func(tl *tally) {
			defer wg.Done()
			tl.timeouts, tl.cancels, tl.err = abuse()
		}(&tallies[k])
	}
	wg.Wait()
	aborted := 0
	for _, tl := range tallies {
		if tl.err != nil {
			t.Fatalf("unexpected error: %v", tl.err)
		}
		aborted += tl.timeouts + tl.cancels
	}
	if aborted == 0 {
		t.Skip("no deadline or cancel fired before completion; host too slow to observe aborts")
	}
	if st := pool.Stats(); st.Discarded < aborted {
		t.Fatalf("pool discarded %d contexts, want >= %d (one per aborted run)", st.Discarded, aborted)
	}

	// The pool must still serve clean, bit-identical runs after the abuse.
	seq := spec
	seq.Workers = 0
	want, err := RunSpecControlled(seq, nil, RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSpecControlled(spec, pool, RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(report.RunJSON(want))
	gotJSON, _ := json.Marshal(report.RunJSON(got))
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("post-chaos run diverged\nfresh:  %s\npooled: %s", wantJSON, gotJSON)
	}

	// Every goroutine the runs started must have exited or be an idle
	// carrier parked in the freelist.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if live() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak after aborts: %d live, want <= %d\n%s", live(), base, buf[:n])
}
