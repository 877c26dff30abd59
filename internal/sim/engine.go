package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// event is a scheduled resumption of a process.
type event struct {
	at  Time
	seq uint64 // creation order; breaks timestamp ties deterministically
	gen uint64 // p.gen at schedule time; a mismatch at pop marks it stale
	p   *Proc
}

// eventHeap is a concrete-typed min-heap of events ordered by (at, seq).
// Compared with container/heap it avoids the interface{} boxing
// allocation on every push and pop, and it clears popped slots so a
// drained queue does not pin *Proc values in memory.
type eventHeap struct {
	s []event
}

func (h *eventHeap) len() int { return len(h.s) }

// less orders events by (at, seq): earliest first, FIFO within a tick.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	h.s = append(h.s, ev)
	s := h.s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := h.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // clear the vacated slot: no stale *Proc reference
	h.s = s[:n]
	// Sift the relocated element down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && less(&s[r], &s[l]) {
			m = r
		}
		if !less(&s[m], &s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// Engine is a deterministic discrete-event simulation kernel.  Create one
// with NewEngine, add processes with Spawn, then call Run.
//
// An Engine is not safe for concurrent use; all interaction happens either
// before Run or from within simulated processes (which the engine runs one
// at a time).
type Engine struct {
	now Time
	seq uint64

	// q is the active pending-event queue.  Small runs use the binary
	// heap; runs past the ladder thresholds use the ladder queue (see
	// queue.go).  Both pop in the same total (at, seq) order, so the
	// choice never affects results.  Both backing structures live on the
	// engine so pooled reuse reallocates neither.
	q    eventQueue
	heap eventHeap
	lad  ladderQueue

	// nowQ is the same-timestamp fast path: events scheduled at the
	// current simulated time bypass the heap entirely and are dispatched
	// FIFO, which is exactly their (at, seq) order — every event already
	// in the heap with the same timestamp predates them in seq (it was
	// pushed before the clock advanced here), and the heap can gain no
	// new events at the current time while nowQ drains.  Wake storms
	// (barrier releases, lock convoys) and process starts all hit this
	// path.
	nowQ    []event
	nowHead int

	nLive int // spawned but not yet terminated processes
	procs []*Proc
	slab  []Proc // unused tail of the chunk Spawn carves processes from

	// carSlab is the unused tail of the chunk new carriers are carved
	// from (see getCarrier); carMade counts the carriers this run made.
	carSlab []carrier
	carMade int

	running *Proc
	failure error // first process panic, converted to a run error
	result  error // the finished run's outcome, returned by Run

	// stop is the cooperative abort flag, the only engine state that may
	// be touched from outside the simulation (see Interrupt).  It is
	// polled at every dispatch, so an interrupted run aborts within one
	// event.
	stop atomic.Bool
	// aborting marks the unwind phase: the run's outcome is decided and
	// every remaining process is being resumed one final time so it can
	// unwind (panic with abortSignal) and terminate.  Unwinding instead
	// of abandoning parked coroutines is what makes failed runs — panics,
	// deadlocks, time limits, aborts — leak no goroutines and return
	// every carrier to the freelist.
	aborting bool
	abortErr error // the run result recorded when the unwind began

	// Events counts every event dispatched by Run.  It is the
	// simulator-cost metric used by the paper's "speed of simulation"
	// comparison (more simulated events = slower simulation).
	Events uint64

	// MaxTime, when positive, aborts Run with a *TimeLimitError once
	// the simulated clock passes it — a watchdog against runaway
	// simulations (livelocked spin loops, mis-sized workloads).
	MaxTime Time

	// Tick, when non-nil, is invoked from the dispatch path every time
	// the simulated clock is about to advance to a strictly later value,
	// with the new time.  It runs before the advancing event dispatches,
	// so all state mutations recorded so far happened at or before the
	// previous clock value — the hook telemetry probes use to close
	// sampling epochs.  Tick must not call back into the engine.
	Tick func(now Time)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.q = &e.heap
	e.lad.topStart = minTime
	return e
}

// Reset returns the engine to its post-NewEngine state while keeping the
// backing arrays of the event heap, the same-timestamp FIFO, and the
// process table, so a pooled engine re-runs without reallocating them.
// All retained slots are cleared so no *Proc from the previous run stays
// reachable.  The per-run hooks (Tick, MaxTime) are cleared too: they
// are configuration of one run, not of the engine.
//
// Reset must not be called while Run is in flight.  A failed run
// (deadlock, panic, time limit, Interrupt) unwinds every process before
// Run returns, so nothing from the old run survives — but its mid-flight
// machine and address-space state may, which is why pooled contexts
// whose run did not complete cleanly are discarded rather than reset
// (see internal/runpool.Pool.Discard).
func (e *Engine) Reset() {
	e.heap.reset()
	e.lad.reset()
	e.q = &e.heap
	for i := range e.nowQ {
		e.nowQ[i] = event{}
	}
	e.nowQ = e.nowQ[:0]
	e.nowHead = 0
	for i := range e.procs {
		e.procs[i] = nil
	}
	e.procs = e.procs[:0]
	e.slab = nil // the old run's processes may still be referenced
	e.carMade = 0
	e.now = 0
	e.seq = 0
	e.nLive = 0
	e.running = nil
	e.failure = nil
	e.Events = 0
	e.MaxTime = 0
	e.Tick = nil
	e.stop.Store(false)
	e.aborting = false
	e.abortErr = nil
	e.result = nil
}

// Interrupt requests a cooperative abort of the in-flight Run.  It is
// the only Engine method safe to call from another goroutine while Run
// executes: it sets an atomic flag the dispatch loop polls, so the run
// aborts at the next event.  The engine then wakes every remaining
// process once so it can unwind and terminate — an aborted Run returns
// an *AbortError only after every process has unwound and handed its
// carrier back, leaking nothing.  Interrupting an engine whose Run has
// already returned is a harmless no-op (Reset clears the flag).
func (e *Engine) Interrupt() { e.stop.Store(true) }

// Interrupted reports whether an abort has been requested.
func (e *Engine) Interrupted() bool { return e.stop.Load() }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Procs returns the processes spawned on the engine, in spawn order.
func (e *Engine) Procs() []*Proc { return e.procs }

// schedule enqueues a resumption of p at time at (>= now).  Bumping
// p.gen invalidates any earlier pending event for p at push time: a
// stale wakeup is recognized by its generation mismatch when popped, so
// the queue never needs scanning.
func (e *Engine) schedule(at Time, p *Proc) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < now %v", at, e.now))
	}
	if at > p.sched {
		p.sched = at
	}
	e.seq++
	p.gen++
	ev := event{at: at, seq: e.seq, gen: p.gen, p: p}
	if at == e.now {
		e.nowQ = append(e.nowQ, ev)
	} else {
		e.q.push(ev)
		if e.q == &e.heap && e.heap.len() >= ladderPending {
			e.escalate() // backlog outgrew the heap mid-run
		}
	}
}

// next pops the next event in (at, seq) order, merging the queue with
// the same-timestamp FIFO.  Queue entries at the current time always
// predate nowQ entries (see the nowQ field comment), so they drain
// first.
func (e *Engine) next() (event, bool) {
	if top := e.q.peek(); top != nil && top.at == e.now {
		return e.q.pop(), true
	}
	if e.nowHead < len(e.nowQ) {
		ev := e.nowQ[e.nowHead]
		e.nowQ[e.nowHead] = event{} // no stale *Proc reference
		e.nowHead++
		if e.nowHead == len(e.nowQ) {
			e.nowQ = e.nowQ[:0]
			e.nowHead = 0
		}
		return ev, true
	}
	if e.q.len() > 0 {
		return e.q.pop(), true
	}
	return event{}, false
}

// advance picks the next runnable event and makes its process the
// running one.  It is called by the process that currently runs — one
// that has just scheduled its own resumption, parked, or terminated (or
// by Run itself to prime the first dispatch) — so engine state is only
// ever touched by one coroutine at a time.  It returns true when the
// dispatched event belongs to cur, in which case control simply stays
// with cur with no coroutine switch at all; otherwise cur yields and the
// dispatch loop resumes e.running, or — once e.running is nil — the run
// is over.
func (e *Engine) advance(cur *Proc) bool {
	if !e.aborting && e.stop.Load() {
		e.beginAbort(&AbortError{At: e.now})
	}
	for {
		ev, ok := e.next()
		if !ok {
			if !e.aborting && e.nLive > 0 {
				// Deadlock: record it, then unwind the blocked processes
				// instead of abandoning their coroutines.
				e.beginAbort(e.deadlock())
				continue
			}
			e.endRun(e.runResult())
			return false
		}
		if ev.gen != ev.p.gen {
			continue // stale wakeup, superseded at push time
		}
		if ev.at > e.now {
			if e.Tick != nil && !e.aborting {
				e.Tick(ev.at)
			}
			e.now = ev.at
			if !e.aborting && e.MaxTime > 0 && e.now > e.MaxTime {
				e.beginAbort(&TimeLimitError{Limit: e.MaxTime, At: e.now})
			}
		}
		e.Events++
		p := ev.p
		p.parked = false
		e.running = p
		return p == cur // same-process dispatch: no switch
	}
}

// beginAbort starts the unwind phase: the run's outcome (reason, or the
// first process failure) is fixed, and every parked process is scheduled
// one last wakeup so it can unwind.  Processes waiting on
// their own queued events need no help — dispatch reaches them — and
// once aborting is set, any resumed process panics with abortSignal
// inside block() before it can touch application state again.  The run
// ends when the queue drains with every process terminated.
func (e *Engine) beginAbort(reason error) {
	e.aborting = true
	if e.abortErr == nil && reason != nil {
		e.abortErr = reason
	}
	for _, p := range e.procs {
		if !p.terminated && p.parked {
			e.schedule(e.now, p)
		}
	}
}

// endRun records the run result; with no running process left, the
// dispatch loop returns.
func (e *Engine) endRun(err error) {
	e.running = nil
	e.result = err
}

// runResult classifies a finished run: the first process failure wins,
// then the recorded abort reason (interrupt, time limit, or deadlock),
// then success.
func (e *Engine) runResult() error {
	if e.failure != nil {
		return e.failure
	}
	if e.abortErr != nil {
		return e.abortErr
	}
	if e.nLive > 0 {
		return e.deadlock()
	}
	return nil
}

// Spawn creates a simulated process executing fn and schedules it to start
// at the current simulation time.  It may be called before Run or from
// inside a running process.  The returned Proc is also passed to fn.
// The process takes a carrier (a pooled coroutine) only when its start
// event is dispatched.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	if len(e.slab) == 0 {
		// Carve processes from chunks that double with the run's
		// width: a P-process run makes O(log P) allocations for them.
		e.slab = make([]Proc, max(16, len(e.procs)))
	}
	p := &e.slab[0]
	e.slab = e.slab[1:]
	*p = Proc{Name: name, eng: e, fn: fn, ID: len(e.procs)}
	e.procs = append(e.procs, p)
	e.nLive++
	e.schedule(e.now, p)
	return p
}

// run executes the process body on its carrier and then does the
// termination bookkeeping: record a panic as the run's failure, retire
// the process, and pick the next event.  A process dispatched after the
// run began aborting terminates without running its body.
func (p *Proc) run() {
	e := p.eng
	defer func() {
		r := recover()
		if r != nil {
			// Panics raised after the abort began are collateral of
			// the unwind (cleanup defers running against torn-down
			// state), not independent failures: recording them would
			// mask the abort's own error.
			if _, unwind := r.(abortSignal); !unwind && !e.aborting && e.failure == nil {
				e.failure = fmt.Errorf("sim: process %q panicked at %v: %v", p.Name, e.now, r)
			}
		}
		p.fn = nil
		p.terminated = true
		p.gen++ // any still-queued wakeup for p is now stale
		e.nLive--
		if e.failure != nil && !e.aborting {
			// A panic fails the run, but the remaining processes are
			// unwound — not abandoned — before Run reports it.
			e.beginAbort(nil)
		}
		e.advance(p) // pick the next event; the carrier then yields
	}()
	if !e.aborting {
		p.fn(p)
	}
}

// Run dispatches events until none remain.  It returns a *DeadlockError
// if processes are still alive (parked forever) when the event queue
// drains, and nil when every process has terminated.
//
// Run primes the first dispatch and then loops, resuming the carrier of
// the running process.  A process that blocks picks the next event
// itself: when the event is its own it carries on with no switch at all,
// otherwise it yields to the loop, which resumes the event's process —
// one coroutine switch each way, never a trip through the Go scheduler.
// Run must not be called from a goroutine locked to its OS thread (see
// carrier).
func (e *Engine) Run() error {
	if e.q == &e.heap && len(e.procs) >= ladderProcs {
		e.escalate() // large-P run: start on the ladder queue
	}
	e.advance(nil)
	e.dispatch()
	return e.result
}

func (e *Engine) deadlock() *DeadlockError {
	var stuck []string
	for _, p := range e.procs {
		if !p.terminated {
			stuck = append(stuck, p.Name)
		}
	}
	sort.Strings(stuck)
	return &DeadlockError{At: e.now, Procs: stuck}
}

// DeadlockError reports that the event queue drained while processes were
// still blocked, i.e. the simulated program deadlocked.
type DeadlockError struct {
	At    Time     // simulation time at which progress stopped
	Procs []string // names of the blocked processes
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: blocked processes: %s",
		d.At, strings.Join(d.Procs, ", "))
}

// TimeLimitError reports that the simulation exceeded Engine.MaxTime.
type TimeLimitError struct {
	Limit Time
	At    Time
}

func (t *TimeLimitError) Error() string {
	return fmt.Sprintf("sim: simulated time %v exceeded the %v limit", t.At, t.Limit)
}

// AbortError reports that the run was aborted by Interrupt — the
// cooperative cancellation path used for wall-clock run timeouts and
// abandoned jobs.  By the time Run returns it, every process has unwound
// and returned its carrier.
type AbortError struct {
	// At is the simulated time at which the abort was observed.
	At Time
}

func (a *AbortError) Error() string {
	return fmt.Sprintf("sim: run aborted at %v", a.At)
}

// abortSignal is the panic value used to unwind processes once a run is
// aborting.  It is recovered (and recognized) by the termination handler
// in Proc.run and never escapes the engine.
type abortSignal struct{}
