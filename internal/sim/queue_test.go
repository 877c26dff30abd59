package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// qheadOf re-derives a queue's head without mutating contents (peek may
// reorganize, never changes the pop order).
func qhead(q eventQueue) (event, bool) {
	ev := q.peek()
	if ev == nil {
		return event{}, false
	}
	return *ev, true
}

// differentialStream replays one randomized push/pop/invalidate stream
// through the binary heap and the ladder queue and requires identical
// behavior at every step: same pops (at, seq, gen, proc), same peeks,
// same lengths.  The stream respects the kernel's invariants — pushes
// never go behind the time of the last popped event, and seq is
// globally monotone — which are exactly the conditions the ladder's
// ordering argument relies on.
func differentialStream(t *testing.T, rng *rand.Rand, h *eventHeap, l *ladderQueue, steps int) {
	t.Helper()
	var (
		now  Time
		seq  uint64
		gens [16]uint64 // stand-in per-proc generation counters
	)
	procs := make([]*Proc, len(gens))
	for i := range procs {
		procs[i] = &Proc{Name: fmt.Sprintf("q%d", i)}
	}
	push := func(at Time) {
		seq++
		pi := rng.Intn(len(procs))
		gens[pi]++
		ev := event{at: at, seq: seq, gen: gens[pi], p: procs[pi]}
		h.push(ev)
		l.push(ev)
	}
	// delta draws a time increment from one of several shapes so the
	// stream exercises same-timestamp storms, dense near-future activity,
	// and far-future outliers (deep rung recursion) in one run.
	delta := func() Time {
		switch rng.Intn(10) {
		case 0, 1, 2:
			return 0 // same-timestamp FIFO
		case 3, 4, 5:
			return Time(rng.Intn(8))
		case 6, 7:
			return Time(rng.Intn(1000))
		case 8:
			return Time(rng.Intn(1_000_000))
		default:
			return Time(rng.Int63n(1_000_000_000_000))
		}
	}
	for i := 0; i < steps; i++ {
		if h.len() != l.len() {
			t.Fatalf("step %d: length diverged: heap %d, ladder %d", i, h.len(), l.len())
		}
		switch op := rng.Intn(10); {
		case op < 5 || h.len() == 0: // push
			push(now + delta())
		case op < 9: // pop
			a, b := h.pop(), l.pop()
			if a != b {
				t.Fatalf("step %d: pop diverged: heap (at=%v seq=%d gen=%d %s), ladder (at=%v seq=%d gen=%d %s)",
					i, a.at, a.seq, a.gen, a.p.Name, b.at, b.seq, b.gen, b.p.Name)
			}
			if a.at < now {
				t.Fatalf("step %d: pop went backwards: %v < %v", i, a.at, now)
			}
			now = a.at
		default: // invalidate: a later push supersedes an earlier event
			pi := rng.Intn(len(procs))
			gens[pi]++ // queued events for pi are now stale; order must not change
		}
		if (i & 7) == 0 {
			ah, aok := qhead(h)
			bh, bok := qhead(l)
			if aok != bok || ah != bh {
				t.Fatalf("step %d: peek diverged: heap (%v, %v), ladder (%v, %v)", i, ah, aok, bh, bok)
			}
		}
	}
	// Drain both completely: the tail must agree event for event.
	for h.len() > 0 {
		if a, b := h.pop(), l.pop(); a != b {
			t.Fatalf("drain: pop diverged: heap seq=%d, ladder seq=%d", a.seq, b.seq)
		}
	}
	if l.len() != 0 {
		t.Fatalf("drain: ladder still holds %d events after heap emptied", l.len())
	}
}

// TestQueueDifferential is the equivalence proof by replay: identical
// randomized streams through both eventQueue implementations, across
// many seeds, with reset-reuse rounds in between (the same objects are
// reused after reset, as a pooled engine reuses them).
func TestQueueDifferential(t *testing.T) {
	var h eventHeap
	var l ladderQueue
	l.topStart = minTime
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		differentialStream(t, rng, &h, &l, 4000)
		// Reset reuse: both queues must behave identically when reused,
		// with no event from the previous round surviving.
		h.reset()
		l.reset()
		if h.len() != 0 || l.len() != 0 {
			t.Fatalf("seed %d: reset left events behind (heap %d, ladder %d)", seed, h.len(), l.len())
		}
	}
}

// TestLadderOrderProperty drives the ladder alone through adversarial
// shapes — all-equal timestamps, unit steps, random interleaves, and a
// range wide enough to overflow ladderMaxRungs — asserting the popped
// sequence is exactly the total (at, seq) order of what was pushed.
func TestLadderOrderProperty(t *testing.T) {
	shapes := []struct {
		name string
		at   func(rng *rand.Rand, i int, now Time) Time
	}{
		{"equal", func(rng *rand.Rand, i int, now Time) Time { return now }},
		{"unit-steps", func(rng *rand.Rand, i int, now Time) Time { return now + Time(rng.Intn(2)) }},
		{"clustered", func(rng *rand.Rand, i int, now Time) Time { return now + Time(rng.Intn(5)*1000) }},
		{"wide", func(rng *rand.Rand, i int, now Time) Time { return now + Time(rng.Int63n(1<<50)) }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var l ladderQueue
			l.topStart = minTime
			p := &Proc{Name: "x"}
			var now Time
			var seq uint64
			pending := 0
			var lastAt Time
			var lastSeq uint64
			popped := 0
			for i := 0; i < 20000; i++ {
				if pending == 0 || rng.Intn(3) > 0 {
					seq++
					l.push(event{at: shape.at(rng, i, now), seq: seq, gen: 1, p: p})
					pending++
					continue
				}
				ev := l.pop()
				pending--
				if popped > 0 && (ev.at < lastAt || (ev.at == lastAt && ev.seq <= lastSeq)) {
					t.Fatalf("pop %d out of order: (%v, %d) after (%v, %d)",
						popped, ev.at, ev.seq, lastAt, lastSeq)
				}
				lastAt, lastSeq = ev.at, ev.seq
				popped++
				now = ev.at
			}
			for pending > 0 {
				ev := l.pop()
				pending--
				if ev.at < lastAt || (ev.at == lastAt && ev.seq <= lastSeq) {
					t.Fatalf("drain out of order: (%v, %d) after (%v, %d)", ev.at, ev.seq, lastAt, lastSeq)
				}
				lastAt, lastSeq = ev.at, ev.seq
			}
			if l.len() != 0 {
				t.Fatalf("ladder reports %d events after full drain", l.len())
			}
		})
	}
}

// TestLadderSelection pins the auto-selection contract: small runs stay
// on the heap, runs at ladderProcs and beyond start on the ladder, and a
// mid-run backlog beyond ladderPending escalates — all with identical
// results, which the goldens and the differential test above guarantee.
func TestLadderSelection(t *testing.T) {
	small := NewEngine()
	for i := 0; i < 8; i++ {
		small.Spawn(fmt.Sprintf("s%d", i), func(p *Proc) { p.Hold(3) })
	}
	if err := small.Run(); err != nil {
		t.Fatal(err)
	}
	if small.q != &small.heap {
		t.Fatal("small run escalated off the binary heap")
	}

	big := NewEngine()
	for i := 0; i < ladderProcs; i++ {
		big.Spawn(fmt.Sprintf("b%d", i), func(p *Proc) { p.Hold(3) })
	}
	if err := big.Run(); err != nil {
		t.Fatal(err)
	}
	if big.q != &big.lad {
		t.Fatal("large run did not select the ladder queue")
	}
	big.Reset()
	if big.q != &big.heap {
		t.Fatal("Reset did not restore the binary heap default")
	}

	// Mid-run escalation: few processes, huge pending backlog (one far
	// future wakeup per spawned helper event via repeated Wake storms is
	// awkward to arrange; a single process scheduling many distinct
	// future self-wakeups is not possible — so drive the threshold
	// directly through schedule on a synthetic engine).
	esc := NewEngine()
	p := &Proc{Name: "filler", eng: esc}
	esc.procs = append(esc.procs, p)
	for i := 0; i <= ladderPending; i++ {
		esc.schedule(Time(i+1), p)
	}
	if esc.q != &esc.lad {
		t.Fatalf("backlog of %d events did not escalate to the ladder queue", ladderPending+1)
	}
}

// TestParallelQueueRetention runs two ladder-sized engines at once on two
// goroutines, sharing the carrier freelist, and checks that afterwards no
// backing slot of either engine's event structures — and no idle carrier
// — still references a *Proc: a pooled engine or a parked carrier must
// not pin a finished run's processes.
func TestParallelQueueRetention(t *testing.T) {
	engines := make([]*Engine, 2)
	var wg sync.WaitGroup
	for k := range engines {
		e := NewEngine()
		engines[k] = e
		for i := 0; i < ladderProcs; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Hold(Time(10 + (i+j)%7))
				}
			})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, e := range engines {
		if e.q != &e.lad {
			t.Fatal("run did not select the ladder queue")
		}
		scanRetained(t, e, "after concurrent run")
		e.Reset()
		scanRetained(t, e, "after concurrent run + Reset")
	}
	carrierFree.Lock()
	defer carrierFree.Unlock()
	for i, c := range carrierFree.idle {
		if c.p != nil {
			t.Errorf("idle carrier %d still references proc %q", i, c.p.Name)
		}
	}
}
