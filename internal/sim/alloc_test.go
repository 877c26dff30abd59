package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// TestEventDispatchAllocBudget pins the steady-state allocation cost of
// the kernel: at most one allocation per dispatched event, amortized
// over a long run.  The concrete-typed heap should make the real number
// near zero (occasional slice growth only); the budget of 1 leaves room
// for the runtime without letting interface boxing or per-event
// closures creep back in.
func TestEventDispatchAllocBudget(t *testing.T) {
	const holds = 2000
	run := func() uint64 {
		e := NewEngine()
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < holds; j++ {
					p.Hold(1)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Events
	}
	run() // warm up the runtime (goroutine stacks, timer state)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	events := run()
	runtime.ReadMemStats(&after)

	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	if perEvent > 1 {
		t.Errorf("dispatch allocates %.2f objects/event over %d events; budget is 1",
			perEvent, events)
	}
}

// scanRetained reports every backing slot — including slots beyond the
// live length, up to capacity — of the engine's event structures that
// still references a *Proc: the heap, the same-timestamp FIFO, the
// ladder queue (bottom run, rung buckets, top).
func scanRetained(t *testing.T, e *Engine, when string) {
	t.Helper()
	check := func(where string, s []event) {
		full := s[:cap(s)]
		for i := range full {
			if full[i].p != nil {
				t.Errorf("%s: %s backing slot %d still references proc %q",
					when, where, i, full[i].p.Name)
			}
		}
	}
	checkLadder := func(where string, l *ladderQueue) {
		check(where+" bottom", l.bot)
		check(where+" top", l.top)
		rungs := l.rungs[:cap(l.rungs)]
		for ri := range rungs {
			bkt := rungs[ri].bkt[:cap(rungs[ri].bkt)]
			for bi := range bkt {
				check(fmt.Sprintf("%s rung %d bucket %d", where, ri, bi), bkt[bi])
			}
		}
	}
	check("heap", e.heap.s)
	check("nowQ", e.nowQ)
	checkLadder("ladder", &e.lad)
}

// TestQueueRetainsNoProcsAfterRun guards the memory-pin fix: after Run
// drains, none of the event structures' backing arrays — heap,
// same-timestamp FIFO, or any part of the ladder queue — may still
// reference a *Proc.  A retained reference would pin the process (and
// transitively its closure and goroutine allocations) for the lifetime
// of the engine — a real leak for long-lived services that keep engines
// around after inspecting results.  The large round crosses the
// ladderProcs threshold so the ladder queue's slots are exercised too.
func TestQueueRetainsNoProcsAfterRun(t *testing.T) {
	for _, procs := range []int{64, ladderProcs} {
		e := NewEngine()
		for i := 0; i < procs; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Hold(Time(1 + (i+j)%7))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if procs >= ladderProcs && e.q != &e.lad {
			t.Fatalf("%d-proc run did not select the ladder queue", procs)
		}
		scanRetained(t, e, fmt.Sprintf("after %d-proc run", procs))
		e.Reset()
		scanRetained(t, e, fmt.Sprintf("after %d-proc run + Reset", procs))
	}
}

// TestHandoffStress exercises the direct process-to-process dispatch
// handoff under churn: many engines, wake storms through queues, and
// same-timestamp scheduling.  Run it under -race to check the run-token
// discipline (engine state is only ever touched by the goroutine that
// holds the token).
func TestHandoffStress(t *testing.T) {
	for round := 0; round < 20; round++ {
		e := NewEngine()
		var q Queue
		const workers = 16
		for i := 0; i < workers; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 30; j++ {
					switch (i + j) % 3 {
					case 0:
						p.Hold(Time(1 + j%5))
					case 1:
						q.Wait(p)
					default:
						p.Defer(2)
						p.Yield()
						for q.WakeOne() {
						}
					}
				}
				for q.WakeOne() {
				}
			})
		}
		// A closer that periodically drains the queue until every worker
		// has terminated, so no round ends in a (deliberate) deadlock.
		e.Spawn("closer", func(p *Proc) {
			for e.nLive > 1 {
				p.Hold(1000)
				q.WakeAll()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestWarmRunCreatesNoCoroutine: once the carrier freelist is warm, a
// p=64 Spawn+Run on a reset engine starts every process on a reused
// carrier.  A fresh coroutine costs about a dozen allocations, so the
// budget — the Proc records plus a little slack — holds only with reuse.
func TestWarmRunCreatesNoCoroutine(t *testing.T) {
	const procs = 64
	e := NewEngine()
	body := func(p *Proc) {
		p.Hold(Time(1 + p.ID%4))
		p.Hold(1)
	}
	run := func() {
		e.Reset()
		for i := 0; i < procs; i++ {
			e.Spawn("w", body)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the freelist and the engine's backing arrays
	idle := IdleCarriers()
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("%.1f allocs per %d-process run", allocs, procs)
	if allocs > procs+8 {
		t.Errorf("warm %d-process run allocates %.1f objects; budget is %d", procs, allocs, procs+8)
	}
	if got := IdleCarriers(); got != idle {
		t.Errorf("idle carriers %d after warm runs, want %d", got, idle)
	}
}
