package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spasm"
	"spasm/internal/faults"
	"spasm/internal/report"
	"spasm/internal/service"
	"spasm/internal/service/client"
	"spasm/internal/sim"
)

// settle waits for the live goroutine count to return to (near) base
// after a shutdown — worker goroutines exit asynchronously.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if liveGoroutines() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d live, want <= %d\n%s", liveGoroutines(), base, buf[:n])
}

// liveGoroutines counts goroutines that are not idle simulation carriers
// parked in the sim freelist: every goroutine a run starts must either
// exit or end up there.
func liveGoroutines() int { return runtime.NumGoroutine() - sim.IdleCarriers() }

func chaosMetric(t *testing.T, svc *service.Server, name string) float64 {
	t.Helper()
	v, ok := client.MetricValue(svc.RenderMetrics(), name)
	if !ok {
		t.Fatalf("metric %s missing:\n%s", name, svc.RenderMetrics())
	}
	return v
}

func cheapSpec(seed int64) spasm.Spec {
	return spasm.Spec{App: "ep", Scale: spasm.Tiny, Seed: seed, Machine: spasm.LogP, P: 2}
}

// TestChaosInjectedPanics: a worker whose runs keep panicking fails
// those jobs — deterministically, without killing the daemon or leaking
// anything — and keeps serving the jobs that don't panic.
func TestChaosInjectedPanics(t *testing.T) {
	defer faults.Reset()
	base := liveGoroutines()
	svc := service.New(service.Config{Workers: 2, NegativeCacheSize: 64})

	var calls atomic.Int64
	restore := faults.Set(faults.RunExec, func() error {
		if calls.Add(1)%2 == 0 {
			panic("injected chaos panic")
		}
		return nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const jobs = 12
	var panicked, completed int
	for i := 0; i < jobs; i++ {
		j, _, err := svc.Submit(cheapSpec(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		st, err := svc.Wait(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case service.StateDone:
			completed++
		case service.StateFailed:
			if !strings.Contains(st.Error, "injected chaos panic") {
				t.Fatalf("unexpected failure: %s", st.Error)
			}
			panicked++
		default:
			t.Fatalf("job ended %s", st.State)
		}
	}
	if panicked == 0 || completed == 0 {
		t.Fatalf("panicked=%d completed=%d, want a mix", panicked, completed)
	}

	// The accounting identity holds through the chaos...
	if done, failed := chaosMetric(t, svc, "spasmd_jobs_done_total"), chaosMetric(t, svc, "spasmd_jobs_failed_total"); done+failed != jobs {
		t.Fatalf("done %v + failed %v != %d submitted", done, failed, jobs)
	}
	// ...and with the injection removed the daemon is fully healthy.
	restore()
	j, _, err := svc.Submit(cheapSpec(1000))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := svc.Wait(ctx, j); err != nil || st.State != service.StateDone {
		t.Fatalf("post-chaos run: %v / %+v", err, st)
	}

	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	settle(t, base+2)
}

// TestChaosRunTimeouts: jobs past the wall-clock deadline fail with a
// timeout, their pooled contexts are discarded (never recycled
// mid-flight), the failures land in the negative cache, and the daemon
// neither leaks goroutines nor loses the ability to run normal jobs.
func TestChaosRunTimeouts(t *testing.T) {
	base := liveGoroutines()
	svc := service.New(service.Config{Workers: 2, RunTimeout: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Small-scale Cholesky at p=16 runs for far longer than 1ms.
	slow := spasm.Spec{App: "cholesky", Scale: spasm.Small, Seed: 1, Machine: spasm.Target, Topology: "mesh", P: 16}
	j, _, err := svc.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Wait(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateFailed || !strings.Contains(st.Error, "timeout") {
		t.Fatalf("deadline run: state=%s err=%q, want failed/timeout", st.State, st.Error)
	}
	if v := chaosMetric(t, svc, "spasmd_jobs_timeout_total"); v != 1 {
		t.Fatalf("jobs_timeout_total = %v, want 1", v)
	}
	if v := chaosMetric(t, svc, "spasmd_pool_contexts_discarded_total"); v < 1 {
		t.Fatalf("pool_contexts_discarded_total = %v, want >= 1 (aborted context must not be reused)", v)
	}

	// Resubmission is answered from the negative cache without burning a
	// worker on a run already known to blow the deadline.
	j2, hit, err := svc.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("remembered failure reported as a positive cache hit")
	}
	st2, err := svc.Wait(ctx, j2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != service.StateFailed {
		t.Fatalf("negative hit state = %s, want failed", st2.State)
	}
	if v := chaosMetric(t, svc, "spasmd_cache_negative_hits_total"); v != 1 {
		t.Fatalf("cache_negative_hits_total = %v, want 1", v)
	}

	// Fast jobs still finish under the same deadline regime.
	j3, _, err := svc.Submit(cheapSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if st3, err := svc.Wait(ctx, j3); err != nil || st3.State != service.StateDone {
		t.Fatalf("fast run under deadline: %v / %+v", err, st3)
	}

	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	settle(t, base+2)
}

// TestChaosMassCancellation: with the only worker wedged, a pile of
// waited jobs whose waiters all leave is canceled wholesale — no
// simulation ever runs for them, nothing is cached, and the canceled
// carcasses left in the queue are skipped once the worker recovers.
func TestChaosMassCancellation(t *testing.T) {
	defer faults.Reset()
	base := liveGoroutines()
	// Arm the stall before the server starts: the only worker blocks at
	// the top of its loop before it can take any job, so every job
	// below stays pending — and cancelable.
	gate := make(chan struct{})
	var gateOnce sync.Once
	faults.Set(faults.WorkerStall, func() error { <-gate; return nil })
	svc := service.New(service.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	const jobs = 8
	type waited struct {
		j       *service.Job
		release func()
	}
	var ws []waited
	for i := 0; i < jobs; i++ {
		j, hit, release, err := svc.SubmitWaited(cheapSpec(int64(i + 1)))
		if err != nil || hit {
			t.Fatalf("submit %d: hit=%v err=%v", i, hit, err)
		}
		ws = append(ws, waited{j, release})
	}

	// Every waiter leaves: all still-pending jobs cancel immediately.
	for _, w := range ws {
		w.release()
	}
	for i, w := range ws {
		select {
		case <-w.j.Done():
		case <-ctx.Done():
			t.Fatalf("job %d not canceled", i)
		}
		st, err := svc.Wait(ctx, w.j)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != service.StateCanceled {
			t.Fatalf("job %d state = %s, want canceled", i, st.State)
		}
	}
	if v := chaosMetric(t, svc, "spasmd_jobs_canceled_total"); v != jobs {
		t.Fatalf("jobs_canceled_total = %v, want %d", v, jobs)
	}

	// Unwedge: the worker drains the carcasses without running anything.
	gateOnce.Do(func() { close(gate) })
	j, _, err := svc.Submit(cheapSpec(999))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := svc.Wait(ctx, j); err != nil || st.State != service.StateDone {
		t.Fatalf("post-cancellation run: %v / %+v", err, st)
	}
	if done := chaosMetric(t, svc, "spasmd_jobs_done_total"); done != 1 {
		t.Fatalf("jobs_done_total = %v, want 1 (canceled jobs must not execute)", done)
	}
	if sims := chaosMetric(t, svc, "spasmd_pool_hits_total") + chaosMetric(t, svc, "spasmd_pool_misses_total"); sims != 1 {
		t.Fatalf("pool gets = %v, want 1 (one real simulation)", sims)
	}
	// A canceled spec resubmitted runs fresh — cancellation is not cached.
	j2, hit, err := svc.Submit(cheapSpec(1))
	if err != nil || hit {
		t.Fatalf("resubmit canceled spec: hit=%v err=%v", hit, err)
	}
	if st, err := svc.Wait(ctx, j2); err != nil || st.State != service.StateDone {
		t.Fatalf("resubmitted canceled spec: %v / %+v", err, st)
	}

	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	settle(t, base+2)
}

// TestChaosMarshalFailure: a result that cannot be serialized fails its
// job (and is remembered) instead of wedging or crashing the worker.
func TestChaosMarshalFailure(t *testing.T) {
	defer faults.Reset()
	svc := service.New(service.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	restore := faults.Set(faults.Marshal, func() error { return fmt.Errorf("injected marshal failure") })
	j, _, err := svc.Submit(cheapSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Wait(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateFailed || !strings.Contains(st.Error, "injected marshal failure") {
		t.Fatalf("marshal-failed job: %+v", st)
	}
	restore()

	// The failure was cached against the spec; after the negative TTL'd
	// entry is bypassed with a different seed, marshaling works again.
	j2, _, err := svc.Submit(cheapSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st2, err := svc.Wait(ctx, j2); err != nil || st2.State != service.StateDone {
		t.Fatalf("post-restore run: %v / %+v", err, st2)
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownSubmitRace hammers Submit from many goroutines while
// Shutdown closes the queue, pinning the invariant that the queue send
// happens under the same mutex that guards close(s.queue): a regression
// would panic with "send on closed channel" or trip the race detector.
func TestShutdownSubmitRace(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		svc := service.New(service.Config{Workers: 1, QueueDepth: 4})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 8; i++ {
					_, _, err := svc.Submit(cheapSpec(int64(iter*1000 + g*100 + i + 1)))
					if err != nil && !errors.Is(err, service.ErrDraining) && !errors.Is(err, service.ErrQueueFull) {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := svc.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()
		close(start)
		wg.Wait()
	}
}

// TestChaosParallelRuns: faults and deadlines against runs executing on
// two service workers at once (with the accepted-and-ignored workers
// knob set).  Injected executor faults fail the job without touching the
// engine; a deadline interrupts a run mid-flight and the drain discards
// the pooled context; and after the abuse the same daemon still serves a
// clean run whose document is byte-identical to a direct run.
// Everything must settle to zero leaked goroutines — under -race this
// doubles as the service-level drain gauntlet.
func TestChaosParallelRuns(t *testing.T) {
	defer faults.Reset()
	base := liveGoroutines()
	svc := service.New(service.Config{Workers: 2, RunTimeout: time.Minute, NegativeCacheSize: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	parSpec := func(seed int64) spasm.Spec {
		return spasm.Spec{App: "cholesky", Scale: spasm.Tiny, Seed: seed,
			Machine: spasm.LogP, Topology: "mesh", P: 8, Workers: 4}
	}

	// Every third run hits an injected executor fault.
	var calls atomic.Int64
	restore := faults.Set(faults.RunExec, func() error {
		if calls.Add(1)%3 == 0 {
			return fmt.Errorf("injected executor fault")
		}
		return nil
	})

	var injected, timedOut, done int
	for seed := int64(1); seed <= 12; seed++ {
		j, _, err := svc.Submit(parSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		st, err := svc.Wait(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case st.State == service.StateDone:
			done++
		case strings.Contains(st.Error, "injected executor fault"):
			injected++
		case strings.Contains(st.Error, "timeout"):
			timedOut++
		default:
			t.Fatalf("seed %d: state=%s err=%q", seed, st.State, st.Error)
		}
	}
	restore()
	if injected == 0 {
		t.Fatal("no injected fault landed")
	}

	// A slow run under a tight deadline, on its own server so the
	// timeout failure cannot pollute the main server's negative cache:
	// the abort happens mid-run and must discard the pooled context.
	dsvc := service.New(service.Config{Workers: 1, RunTimeout: 2 * time.Millisecond})
	slow := spasm.Spec{App: "cholesky", Scale: spasm.Small, Seed: 1,
		Machine: spasm.LogP, Topology: "mesh", P: 16, Workers: 4}
	j, _, err := dsvc.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsvc.Wait(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateFailed || !strings.Contains(st.Error, "timeout") {
		t.Fatalf("deadline run: state=%s err=%q, want failed/timeout", st.State, st.Error)
	}
	if v := chaosMetric(t, dsvc, "spasmd_pool_contexts_discarded_total"); v < 1 {
		t.Fatalf("pool_contexts_discarded_total = %v, want >= 1", v)
	}
	if err := dsvc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The survivor runs' documents match a direct run.
	seq := parSpec(1)
	seq.Workers = 0
	direct, err := spasm.RunSpec(seq)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(report.RunJSON(direct))
	j2, _, err := svc.Submit(parSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := svc.Wait(ctx, j2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != service.StateDone {
		t.Fatalf("post-chaos run: state=%s err=%q", st2.State, st2.Error)
	}
	if !bytes.Equal([]byte(st2.Result), want) {
		t.Fatalf("post-chaos document diverged\ndirect:  %s\nservice: %s", want, st2.Result)
	}

	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	settle(t, base+2)
}
