package sim

import "fmt"

// Proc is a simulated process.  Its methods must be called only from
// within the process's own function (the engine guarantees one process
// runs at a time, so this is naturally the case).
//
// Each process carries a *local clock* that may run ahead of the global
// event clock: purely local work (instruction blocks, cache hits) is
// accumulated with Defer and folded into the next real event, exactly as
// an execution-driven simulator runs local instructions at native speed
// and schedules only the shared events.  Now always reports the local
// clock, so timing is unaffected; only the number of engine events (and
// hence the cost of simulation) changes.
type Proc struct {
	ID   int
	Name string

	eng        *Engine
	fn         func(*Proc) // the body; nil once the process terminates
	car        *carrier    // the coroutine running the body, once started
	parked     bool
	terminated bool
	gen        uint64 // generation counter; events with an older gen are stale
	lag        Time   // local clock advance not yet materialized
	sched      Time   // latest scheduled resumption (see Horizon)
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the process's local simulated time (the global event time
// plus any deferred local work).
func (p *Proc) Now() Time { return p.eng.now + p.lag }

// Horizon reports how far the process has progressed along its own
// timeline: its local clock, or its latest scheduled resumption if that
// lies further out.  A process that flushed deferred work (or holds
// until a future wakeup) has already accounted the simulated time up to
// that event even though Now still reports the global clock — telemetry
// probes use Horizon to place such charges in the right sampling epoch.
func (p *Proc) Horizon() Time {
	if n := p.Now(); n > p.sched {
		return n
	}
	return p.sched
}

// block dispatches the next event and waits to be resumed.  When the
// next event belongs to p itself, advance returns true and block returns
// immediately — no coroutine switch.  Otherwise p yields to Run's
// dispatch loop, which resumes it when one of its events is dispatched.
//
// If the run began aborting while p was blocked, the resumption is the
// process's last: block panics with abortSignal so the process unwinds
// out of the application code and terminates (Proc.run's handler
// recognizes the signal), instead of running on inside a dead
// simulation.
func (p *Proc) block() {
	if !p.eng.advance(p) {
		p.car.yield(struct{}{}) // back to Run's dispatch loop
	}
	if p.eng.aborting {
		panic(abortSignal{})
	}
}

// Defer advances the process's local clock by d without scheduling an
// engine event.  The deferred time is folded into the next Hold, Park or
// Yield.  Use it for work that cannot interact with other processes.
func (p *Proc) Defer(d Time) {
	if d > 0 {
		p.lag += d
	}
}

// Lag returns the process's deferred local time (exposed for tests).
func (p *Proc) Lag() Time { return p.lag }

// FlushLag materializes any deferred local time as a real event,
// advancing the global clock to the process's local clock.  Synchroniz-
// ation objects call it BEFORE inserting the process into a wait queue:
// a process must never sit in a waiter list while it still owes the
// engine a flush event, or a waker could try to Wake it mid-flush.
func (p *Proc) FlushLag() {
	if p.lag > 0 {
		d := p.lag
		p.lag = 0
		p.eng.schedule(p.eng.now+d, p)
		p.block()
	}
}

// Hold advances the process's local activity by d units of simulated
// time: the process sleeps and other processes run in the interim.  Any
// deferred local time is folded into the same event.  A non-positive d
// still flushes deferred time.
func (p *Proc) Hold(d Time) {
	if d < 0 {
		d = 0
	}
	if d+p.lag <= 0 {
		return
	}
	at := p.eng.now + p.lag + d
	p.lag = 0
	p.eng.schedule(at, p)
	p.block()
}

// HoldUntil sleeps until absolute local time t (no-op if t <= Now()).
func (p *Proc) HoldUntil(t Time) {
	if t <= p.Now() {
		return
	}
	p.lag = 0
	p.eng.schedule(t, p)
	p.block()
}

// Park blocks the process indefinitely; some other process must Wake it.
// Callers that enqueue the process on a wait list must FlushLag before
// enqueueing (see Queue.Wait); Park itself must not flush, because by
// the time it runs the process may already be visible to wakers.
func (p *Proc) Park() {
	p.parked = true
	p.block()
}

// Wake schedules a parked process to resume at the current simulated
// time.  Waking a process that is not parked panics: that is always a
// bookkeeping bug in a synchronization object — except while the run is
// aborting, when Wake is a no-op: the engine has already scheduled every
// parked process for its final unwind resumption, and deferred cleanup
// in unwinding application frames (lock releases, barrier exits) may
// legitimately try to wake peers that are no longer parked.
func (p *Proc) Wake() {
	e := p.eng
	if e.aborting {
		return
	}
	if !p.parked {
		panic(fmt.Sprintf("sim: Wake of non-parked process %q", p.Name))
	}
	e.schedule(e.now, p)
}

// Yield reschedules the process at its current local time behind any
// other process already scheduled there, giving them a chance to run.
func (p *Proc) Yield() {
	at := p.eng.now + p.lag
	p.lag = 0
	p.eng.schedule(at, p)
	p.block()
}
