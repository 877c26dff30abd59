package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Engines running in parallel on host goroutines share one carrier
// freelist: a carrier one engine returns may be resumed by another at
// once.  These tests run the same program on several engines at the same
// time and require each run to match a run made alone — same error, same
// event count, same final clock, same trace — and every carrier to come
// back.  Under -race they check the freelist's hand-over edges.

// trace is a deterministic execution log of one run.
type trace struct {
	log []string
}

func (t *trace) add(p *Proc, format string, args ...any) {
	t.log = append(t.log, fmt.Sprintf("%s@%v: %s", p.Name, p.Now(), fmt.Sprintf(format, args...)))
}

// runConcurrent runs build's program once alone as the reference, then on
// engines engines at once, one goroutine each, and requires every
// concurrent run to reproduce the reference.  It returns the reference
// run's trace and error.
func runConcurrent(t *testing.T, engines int, build func(e *Engine, tr *trace)) (*trace, error) {
	t.Helper()
	base := liveGoroutines()

	ref, refTr := NewEngine(), &trace{}
	build(ref, refTr)
	refErr := ref.Run()

	type outcome struct {
		eng *Engine
		tr  *trace
		err error
	}
	outs := make([]outcome, engines)
	var wg sync.WaitGroup
	for k := range outs {
		e, tr := NewEngine(), &trace{}
		build(e, tr)
		outs[k] = outcome{eng: e, tr: tr}
		wg.Add(1)
		go func(o *outcome) {
			defer wg.Done()
			o.err = o.eng.Run()
		}(&outs[k])
	}
	wg.Wait()

	for k, o := range outs {
		if (refErr == nil) != (o.err == nil) || (refErr != nil && refErr.Error() != o.err.Error()) {
			t.Fatalf("engine %d: result mismatch: alone %v, concurrent %v", k, refErr, o.err)
		}
		if ref.Events != o.eng.Events {
			t.Fatalf("engine %d: event count mismatch: alone %d, concurrent %d", k, ref.Events, o.eng.Events)
		}
		if ref.Now() != o.eng.Now() {
			t.Fatalf("engine %d: final clock mismatch: alone %v, concurrent %v", k, ref.Now(), o.eng.Now())
		}
		if len(refTr.log) != len(o.tr.log) {
			t.Fatalf("engine %d: trace length mismatch: alone %d, concurrent %d", k, len(refTr.log), len(o.tr.log))
		}
		for i := range refTr.log {
			if refTr.log[i] != o.tr.log[i] {
				t.Fatalf("engine %d: trace diverges at %d:\n  alone:      %s\n  concurrent: %s", k, i, refTr.log[i], o.tr.log[i])
			}
		}
		if !allTerminated(o.eng) {
			t.Fatalf("engine %d left live processes", k)
		}
	}
	settleGoroutines(t, base)
	return refTr, refErr
}

// TestParallelPingPong alternates two processes through a lock with
// asymmetric hold times, on two engines at once.
func TestParallelPingPong(t *testing.T) {
	tr, err := runConcurrent(t, 2, func(e *Engine, tr *trace) {
		var l Lock
		for i := 0; i < 2; i++ {
			hold := Time(3 + 2*i)
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for round := 0; round < 20; round++ {
					l.Acquire(p)
					tr.add(p, "locked round %d", round)
					p.Hold(hold)
					l.Release(p)
					p.Hold(1)
				}
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.log) != 40 {
		t.Fatalf("trace length %d, want 40", len(tr.log))
	}
}

// TestParallelRandomized drives a randomized mix of holds, defers,
// yields, barrier phases, semaphores, and queue waits across several
// processes, on 2, 4 and 8 engines at once.
func TestParallelRandomized(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		const procs = 8
		build := func(e *Engine, tr *trace) {
			bar := NewBarrier(procs)
			sem := NewSemaphore(2)
			var l Lock
			var q Queue
			var pending int
			var arrived [5]int // per phase: processes at the barrier
			for i := 0; i < procs; i++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
				e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
					for phase := 0; phase < 5; phase++ {
						for step := 0; step < 6; step++ {
							switch rng.Intn(6) {
							case 0:
								p.Hold(Time(rng.Intn(20)))
							case 1:
								p.Defer(Time(rng.Intn(9)))
							case 2:
								p.Yield()
							case 3:
								sem.Acquire(p)
								p.Hold(Time(1 + rng.Intn(5)))
								sem.Release()
							case 4:
								l.Acquire(p)
								tr.add(p, "crit phase %d step %d", phase, step)
								p.Hold(Time(rng.Intn(4)))
								l.Release(p)
							case 5:
								// Meet in pairs through the bare queue, unless
								// everyone else is already at the barrier.
								p.FlushLag()
								if pending > 0 {
									pending--
									q.WakeOne()
								} else if arrived[phase] < procs-1 {
									pending++
									q.Wait(p)
								}
							}
						}
						// Release a partner still waiting on the pairing
						// queue, or it would hold the barrier forever.
						if pending > 0 {
							pending--
							q.WakeOne()
						}
						tr.add(p, "arrive %d", phase)
						arrived[phase]++
						bar.Arrive(p)
					}
				})
			}
		}
		for _, engines := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("seed%d_w%d", seed, engines), func(t *testing.T) {
				if _, err := runConcurrent(t, engines, build); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestParallelDeadlock: a program that deadlocks reports the same
// DeadlockError on every concurrent engine and returns every carrier.
func TestParallelDeadlock(t *testing.T) {
	_, err := runConcurrent(t, 4, func(e *Engine, tr *trace) {
		var q Queue
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
				p.Hold(Time(p.ID + 1))
				q.Wait(p) // nobody wakes anyone
			})
		}
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) || len(dl.Procs) != 4 {
		t.Fatalf("want a DeadlockError naming 4 processes, got %v", err)
	}
}

// TestParallelPanic: a process panic fails the run with the same error
// text on every concurrent engine, and the panicked runs return their
// carriers to the freelist.
func TestParallelPanic(t *testing.T) {
	build := func(e *Engine, tr *trace) {
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Hold(Time(10 * (p.ID + 1)))
				if p.ID == 2 {
					panic("boom")
				}
				p.Hold(1000)
			})
		}
	}
	runConcurrent(t, 4, build) // warm the freelist to at least 16 carriers
	idle := IdleCarriers()
	if _, err := runConcurrent(t, 4, build); err == nil {
		t.Fatal("panicking program succeeded")
	}
	if got := IdleCarriers(); got != idle {
		t.Fatalf("idle carriers %d after panicked runs, want %d", got, idle)
	}
}

// TestParallelInterrupt aborts engines running at once mid-flight: each
// returns an AbortError, and every carrier comes back.
func TestParallelInterrupt(t *testing.T) {
	base := liveGoroutines()
	const engines = 4
	var wg sync.WaitGroup
	errs := make([]error, engines)
	for k := 0; k < engines; k++ {
		e := NewEngine()
		var started atomic.Bool
		for i := 0; i < 8; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for {
					started.Store(true)
					p.Hold(5)
					p.Yield()
				}
			})
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for !started.Load() {
				runtime.Gosched()
			}
			time.Sleep(200 * time.Microsecond)
			e.Interrupt()
		}()
		go func(k int) {
			defer wg.Done()
			errs[k] = e.Run()
			if !allTerminated(e) {
				t.Errorf("engine %d left live processes", k)
			}
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		var abort *AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("engine %d: interrupted run returned %v, want *AbortError", k, err)
		}
	}
	settleGoroutines(t, base)
}

// TestParallelReset: a pooled engine is reset and re-run on a different
// goroutine than its first run; carriers do not care which goroutine
// resumes them.
func TestParallelReset(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) { p.Hold(5) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("first run failed: %v", err)
	}
	e.Reset()
	ran := false
	e.Spawn("after", func(p *Proc) {
		p.Hold(3)
		ran = true
	})
	done := make(chan error)
	go func() { done <- e.Run() }()
	if err := <-done; err != nil || !ran {
		t.Fatalf("re-run after Reset: err=%v ran=%v", err, ran)
	}
	if e.Now() != 3 {
		t.Fatalf("re-run clock %v, want 3", e.Now())
	}
}

// TestParallelMidRunSpawn: processes spawned from inside a run take
// carriers mid-run, on several engines at once.
func TestParallelMidRunSpawn(t *testing.T) {
	tr, err := runConcurrent(t, 2, func(e *Engine, tr *trace) {
		for i := 0; i < 2; i++ {
			e.Spawn(fmt.Sprintf("root%d", i), func(p *Proc) {
				p.Hold(Time(5 * (p.ID + 1)))
				e.Spawn(fmt.Sprintf("child-of-%d", p.ID), func(c *Proc) {
					c.Hold(7)
					tr.add(c, "child done")
				})
				tr.add(p, "spawned")
				p.Hold(30)
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.log) != 4 {
		t.Fatalf("trace length %d, want 4 (two spawns, two children)", len(tr.log))
	}
}

// TestCarriersReusedAcrossEngines: once the freelist is warm, two
// engines running at once on two goroutines start every process on a
// reused carrier — the idle count is the same after every round — and
// panicked and aborted runs hand their carriers back too.
func TestCarriersReusedAcrossEngines(t *testing.T) {
	const procs = 16
	build := func(fail string) *Engine {
		e := NewEngine()
		var q Queue
		for i := 0; i < procs; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Hold(Time(1 + p.ID%3))
				switch {
				case fail == "panic" && p.ID == procs-1:
					panic("boom")
				case fail == "park" && p.ID%2 == 0:
					q.Wait(p) // stays parked until the abort unwinds it
				}
				p.Hold(5)
			})
		}
		if fail == "abort" {
			e.Interrupt()
		}
		return e
	}
	pair := func(fail string) []error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for k := range errs {
			e := build(fail)
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = e.Run()
			}(k)
		}
		wg.Wait()
		return errs
	}
	pair("") // warm: the freelist now holds at least 2*procs carriers
	idle := IdleCarriers()
	if idle < 2*procs {
		t.Fatalf("warm freelist holds %d carriers, want >= %d", idle, 2*procs)
	}
	for _, fail := range []string{"", "panic", "abort", "park", ""} {
		errs := pair(fail)
		for k, err := range errs {
			if (err == nil) != (fail == "") {
				t.Fatalf("%q engine %d: err=%v", fail, k, err)
			}
		}
		if got := IdleCarriers(); got != idle {
			t.Fatalf("after %q runs: %d idle carriers, want %d (every carrier reused and returned)", fail, got, idle)
		}
	}
}

// TestCarrierFreelistBounded: a run wider than the freelist bound stops
// the carriers that do not fit, so the freelist never exceeds the bound.
func TestCarrierFreelistBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns more processes than the freelist bound")
	}
	base := liveGoroutines()
	e := NewEngine()
	for i := 0; i < carrierCap+64; i++ {
		e.Spawn("w", func(p *Proc) { p.Hold(1) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := IdleCarriers(); got != carrierCap {
		t.Fatalf("freelist holds %d carriers after a %d-process run, want the bound %d",
			got, carrierCap+64, carrierCap)
	}
	settleGoroutines(t, base)
}
