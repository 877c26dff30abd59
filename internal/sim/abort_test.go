package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// allTerminated reports whether every process spawned on e has unwound.
func allTerminated(e *Engine) bool {
	for _, p := range e.procs {
		if !p.terminated {
			return false
		}
	}
	return true
}

// liveGoroutines counts goroutines that are not idle carriers parked in
// the freelist: every goroutine a run starts must either exit or end up
// there.
func liveGoroutines() int { return runtime.NumGoroutine() - IdleCarriers() }

// settleGoroutines waits for the live goroutine count to come back to
// (near) base, allowing the scheduler a moment for goroutines that exit
// asynchronously.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if liveGoroutines() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d live, want <= %d\n%s", liveGoroutines(), base, buf[:n])
}

// TestInterruptAbortsAndUnwinds: an interrupted run returns *AbortError,
// and every process goroutine — spinners with queued events and parked
// waiters alike — unwinds and exits.
func TestInterruptAbortsAndUnwinds(t *testing.T) {
	base := liveGoroutines()
	e := NewEngine()
	var q Queue
	for i := 0; i < 4; i++ {
		e.Spawn("spinner", func(p *Proc) {
			for {
				p.Hold(100)
			}
		})
	}
	for i := 0; i < 4; i++ {
		e.Spawn("waiter", func(p *Proc) { q.Wait(p) })
	}
	e.Interrupt()
	err := e.Run()
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("want AbortError, got %v", err)
	}
	if !allTerminated(e) {
		t.Fatal("interrupted run left live processes")
	}
	settleGoroutines(t, base)
}

// TestInterruptConcurrentWithRun aborts from another goroutine while the
// run is in full flight — the production shape (a watchdog timer firing
// mid-simulation).
func TestInterruptConcurrentWithRun(t *testing.T) {
	base := liveGoroutines()
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Spawn("spinner", func(p *Proc) {
			for {
				p.Hold(10)
			}
		})
	}
	go func() {
		time.Sleep(time.Millisecond)
		e.Interrupt()
	}()
	err := e.Run()
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("want AbortError, got %v", err)
	}
	if !allTerminated(e) {
		t.Fatal("interrupted run left live processes")
	}
	settleGoroutines(t, base+1) // the interrupter itself may still be exiting
}

// TestDeadlockUnwindsGoroutines: a deadlocked run still reports
// *DeadlockError with the blocked-process list captured at detection,
// but its goroutines no longer stay parked forever.
func TestDeadlockUnwindsGoroutines(t *testing.T) {
	base := liveGoroutines()
	e := NewEngine()
	var q Queue
	e.Spawn("stuck-a", func(p *Proc) { q.Wait(p) })
	e.Spawn("stuck-b", func(p *Proc) { q.Wait(p) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(dl.Procs) != 2 {
		t.Fatalf("deadlock procs = %v, want both", dl.Procs)
	}
	if !allTerminated(e) {
		t.Fatal("deadlocked run left live processes")
	}
	settleGoroutines(t, base)
}

// TestPanicUnwindsGoroutines: a process panic fails the run with the
// panic error, and the surviving processes (parked and scheduled) are
// unwound rather than abandoned.
func TestPanicUnwindsGoroutines(t *testing.T) {
	base := liveGoroutines()
	e := NewEngine()
	var q Queue
	e.Spawn("parked", func(p *Proc) { q.Wait(p) })
	e.Spawn("sleeper", func(p *Proc) { p.Hold(1e6) })
	e.Spawn("boom", func(p *Proc) {
		p.Hold(10)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || !allTerminated(e) {
		t.Fatalf("err=%v terminated=%v, want panic error with all processes unwound", err, allTerminated(e))
	}
	settleGoroutines(t, base)
}

// TestMaxTimeUnwindsGoroutines: the simulated-time watchdog keeps its
// *TimeLimitError identity and now also unwinds the runaway processes.
func TestMaxTimeUnwindsGoroutines(t *testing.T) {
	base := liveGoroutines()
	e := NewEngine()
	e.MaxTime = 1000
	var q Queue
	e.Spawn("parked", func(p *Proc) { q.Wait(p) })
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Hold(100)
		}
	})
	err := e.Run()
	var tl *TimeLimitError
	if !errors.As(err, &tl) {
		t.Fatalf("want TimeLimitError, got %v", err)
	}
	if !allTerminated(e) {
		t.Fatal("timed-out run left live processes")
	}
	settleGoroutines(t, base)
}

// TestAbortSurvivesCleanupWakes: deferred cleanup in unwinding
// application frames (the lock-release idiom) may Wake peers the abort
// has already resumed; the run must still report *AbortError — the
// collateral "Wake of non-parked process" panic must neither escape nor
// replace the abort as the recorded failure.
func TestAbortSurvivesCleanupWakes(t *testing.T) {
	base := liveGoroutines()
	e := NewEngine()
	var q Queue
	procs := make([]*Proc, 0, 4)
	for i := 0; i < 4; i++ {
		p := e.Spawn("cleanup", func(p *Proc) {
			defer func() {
				// Release-style cleanup: wake every peer, whatever state
				// the abort left it in.
				for _, o := range procs {
					if o != p && !o.terminated {
						o.Wake()
					}
				}
			}()
			q.Wait(p)
		})
		procs = append(procs, p)
	}
	e.Interrupt()
	err := e.Run()
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("want AbortError despite cleanup wakes, got %v", err)
	}
	if !allTerminated(e) {
		t.Fatal("run left live processes")
	}
	settleGoroutines(t, base)
}

// TestResetAfterInterrupt: an aborted engine resets to a clean state —
// the stop flag does not leak into the next run.
func TestResetAfterInterrupt(t *testing.T) {
	e := NewEngine()
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Hold(100)
		}
	})
	e.Interrupt()
	if err := e.Run(); err == nil {
		t.Fatal("interrupted run succeeded")
	}
	e.Reset()
	if e.Interrupted() {
		t.Fatal("Reset did not clear the stop flag")
	}
	ran := false
	e.Spawn("clean", func(p *Proc) {
		p.Hold(10)
		ran = true
	})
	if err := e.Run(); err != nil || !ran {
		t.Fatalf("post-abort run: err=%v ran=%v", err, ran)
	}
}

// TestInterruptAfterRunIsHarmless: interrupting an engine whose run has
// already completed must not poison anything (the watchdog race at the
// end of a successful run).
func TestInterruptAfterRunIsHarmless(t *testing.T) {
	e := NewEngine()
	e.Spawn("quick", func(p *Proc) { p.Hold(10) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Interrupt() // late watchdog
	e.Reset()
	ok := false
	e.Spawn("next", func(p *Proc) { ok = true })
	if err := e.Run(); err != nil || !ok {
		t.Fatalf("run after late interrupt: err=%v ok=%v", err, ok)
	}
}
