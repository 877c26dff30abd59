package app

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"spasm/internal/machine"
	"spasm/internal/runpool"
	"spasm/internal/sim"
)

// spinnerProg runs forever, scheduling a real engine event per
// iteration (Compute alone only defers local time, which would never
// hand control back to the event loop); only an abort ends it.
func spinnerProg() Program {
	return &testProg{
		name:  "spinner",
		setup: func(*Ctx) {},
		body: func(p *Proc) {
			for {
				p.Compute(100)
				p.S.Hold(1)
			}
		},
	}
}

// liveGoroutines counts goroutines that are not idle simulation carriers
// parked in the sim freelist: every goroutine a run starts must either
// exit or end up there.
func liveGoroutines() int { return runtime.NumGoroutine() - sim.IdleCarriers() }

// settleGoroutines waits for the live goroutine count to come back to
// (near) base — watchdog and canceler goroutines exit asynchronously
// after the run returns.
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

func TestRunControlledTimeout(t *testing.T) {
	base := liveGoroutines()
	cfg := machine.Config{Kind: machine.Ideal, P: 4}
	_, err := RunControlled(spinnerProg(), cfg, RunControl{Timeout: 2 * time.Millisecond})
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("want ErrRunTimeout, got %v", err)
	}
	settleGoroutines(t, base)
}

func TestRunControlledCancel(t *testing.T) {
	base := liveGoroutines()
	cancel := make(chan struct{})
	go func() {
		time.Sleep(time.Millisecond)
		close(cancel)
	}()
	cfg := machine.Config{Kind: machine.Ideal, P: 4}
	_, err := RunControlled(spinnerProg(), cfg, RunControl{Cancel: cancel})
	if !errors.Is(err, ErrRunCanceled) {
		t.Fatalf("want ErrRunCanceled, got %v", err)
	}
	settleGoroutines(t, base+1) // the canceler itself may still be exiting
}

func TestRunControlledZeroValueCompletes(t *testing.T) {
	cfg := machine.Config{Kind: machine.Target, Topology: "full", P: 2}
	prog := &testProg{name: "ok", setup: func(*Ctx) {}, body: func(p *Proc) { p.Compute(50) }}
	res, err := RunControlled(prog, cfg, RunControl{})
	if err != nil || res == nil {
		t.Fatalf("zero-control run failed: %v", err)
	}
}

// TestRunControlledGenerousTimeoutCompletes pins the watchdog-join
// handshake: a run that finishes before its (ample) deadline must
// succeed, and the late-armed watchdog must not poison anything.
func TestRunControlledGenerousTimeoutCompletes(t *testing.T) {
	cfg := machine.Config{Kind: machine.Ideal, P: 2}
	prog := &testProg{name: "quick", setup: func(*Ctx) {}, body: func(p *Proc) { p.Compute(10) }}
	for i := 0; i < 20; i++ {
		if _, err := RunControlled(prog, cfg, RunControl{Timeout: time.Minute}); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// TestPooledDiscardOnAbort: an aborted pooled run must discard its
// context — half-finished engine/space/machine state never re-enters the
// freelist — while a subsequent clean run on the same pool still works.
func TestPooledDiscardOnAbort(t *testing.T) {
	pool := runpool.New(4)
	cfg := machine.Config{Kind: machine.Ideal, P: 4}
	_, err := RunPooledControlled(spinnerProg(), cfg, pool, RunControl{Timeout: 2 * time.Millisecond})
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("want ErrRunTimeout, got %v", err)
	}
	st := pool.Stats()
	if st.Discarded != 1 || st.Live != 0 {
		t.Fatalf("after abort: %+v, want Discarded=1 Live=0", st)
	}

	prog := &testProg{name: "clean", setup: func(*Ctx) {}, body: func(p *Proc) { p.Compute(10) }}
	if _, err := RunPooledControlled(prog, cfg, pool, RunControl{Timeout: time.Minute}); err != nil {
		t.Fatalf("clean run after discard: %v", err)
	}
	st = pool.Stats()
	if st.Live != 1 || st.Discarded != 1 {
		t.Fatalf("after clean run: %+v, want Live=1 Discarded=1", st)
	}
}

// TestPooledDiscardOnFailure: non-abort failures (a failed result check)
// also bypass the freelist.
func TestPooledDiscardOnFailure(t *testing.T) {
	pool := runpool.New(4)
	cfg := machine.Config{Kind: machine.Ideal, P: 2}
	bad := &testProg{
		name:  "bad",
		setup: func(*Ctx) {},
		body:  func(p *Proc) { p.Compute(10) },
		check: func() error { return errors.New("wrong answer") },
	}
	if _, err := RunPooledControlled(bad, cfg, pool, RunControl{}); err == nil {
		t.Fatal("check failure not propagated")
	}
	if st := pool.Stats(); st.Discarded != 1 || st.Live != 0 {
		t.Fatalf("after failed run: %+v, want Discarded=1 Live=0", st)
	}
}

// TestPooledControlledNilPool falls back to unpooled controlled runs.
func TestPooledControlledNilPool(t *testing.T) {
	cfg := machine.Config{Kind: machine.Ideal, P: 2}
	_, err := RunPooledControlled(spinnerProg(), cfg, nil, RunControl{Timeout: 2 * time.Millisecond})
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("want ErrRunTimeout, got %v", err)
	}
	prog := &testProg{name: "ok", setup: func(*Ctx) {}, body: func(p *Proc) { p.Compute(10) }}
	if _, err := RunPooledControlled(prog, cfg, nil, RunControl{}); err != nil {
		t.Fatalf("nil-pool zero-control run: %v", err)
	}
}
