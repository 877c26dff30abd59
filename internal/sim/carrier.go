//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// A carrier is a pooled stdlib coroutine (iter.Pull) that runs simulated
// process bodies.  Run's dispatch loop resumes the carrier of the running
// process; the process yields back to that loop whenever it blocks on an
// event that is not its own, so a process switch is a direct coroutine
// switch rather than a trip through the Go scheduler.  A carrier runs one
// process body after another: when its process terminates it yields a
// last time, and the dispatch loop hands it back to the freelist for the
// next process — of this run, a later run, or another engine.
//
// The runtime requires a coroutine's resumer to match the OS-thread
// lock state it was created under, so Run must not be called from a
// goroutine locked to its thread (runtime.LockOSThread).
type carrier struct {
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	p      *Proc // the process this carrier is currently running
}

// carrierCap bounds the idle-carrier freelist: enough for a 1024-process
// run on each of two host cores to start every process on a reused
// carrier.  Each idle carrier is a parked goroutine with its stack, so
// carriers returned beyond the bound are stopped instead of kept.
const carrierCap = 2048

// carrierFree is the package-level freelist of idle carriers, shared by
// every engine in the process (the same shape as logp's port freelist).
// Its mutex also guards starting, the hand-over slot through which a new
// carrier's coroutine learns its own record (see getCarrier).
var carrierFree struct {
	sync.Mutex
	idle     []*carrier
	starting *carrier
}

// IdleCarriers reports how many idle coroutines the freelist holds.  Each
// is a parked goroutine, so goroutine-leak checks subtract this count:
// every goroutine a run started that is not parked in the freelist must
// have exited.
func IdleCarriers() int {
	carrierFree.Lock()
	defer carrierFree.Unlock()
	return len(carrierFree.idle)
}

// getCarrier takes an idle carrier from the freelist, or creates one.
// A fresh iter.Pull costs about ten allocations (and a goroutine), which
// is why carriers are recycled rather than made per process.  New
// carrier records are carved from chunks that double with the number the
// run has made, so their own allocations are O(log P) per run.
func (e *Engine) getCarrier() *carrier {
	carrierFree.Lock()
	if n := len(carrierFree.idle); n > 0 {
		c := carrierFree.idle[n-1]
		carrierFree.idle[n-1] = nil
		carrierFree.idle = carrierFree.idle[:n-1]
		carrierFree.Unlock()
		return c
	}
	carrierFree.Unlock()
	if len(e.carSlab) == 0 {
		e.carSlab = make([]carrier, max(8, e.carMade))
	}
	c := &e.carSlab[0]
	e.carSlab = e.carSlab[1:]
	e.carMade++
	// carrierLoop captures nothing, so the coroutine body costs no
	// allocation of its own; a priming resume hands it c instead.
	c.resume, c.stop = iter.Pull(carrierLoop)
	carrierFree.Lock()
	carrierFree.starting = c
	c.resume()
	carrierFree.Unlock()
	return c
}

// putCarrier returns a carrier whose process has terminated.  It must be
// called by the goroutine that resumed the carrier, after the resume
// returned: a carrier in the freelist may be resumed by another engine
// at once.
func putCarrier(c *carrier) {
	c.p = nil
	carrierFree.Lock()
	if len(carrierFree.idle) < carrierCap {
		carrierFree.idle = append(carrierFree.idle, c)
		carrierFree.Unlock()
		return
	}
	carrierFree.Unlock()
	c.stop()
}

// carrierLoop is every carrier's coroutine body.  The priming resume
// picks up the carrier record from the hand-over slot and parks; each
// later resume runs the assigned process to termination and parks again.
// It returns (ending the coroutine) only when the carrier is stopped.
func carrierLoop(yield func(struct{}) bool) {
	c := carrierFree.starting
	c.yield = yield
	for yield(struct{}{}) {
		c.p.run()
	}
}

// dispatch is Run's loop: resume the running process's carrier until the
// run ends.  A process keeps its carrier from its first dispatch until it
// terminates; a terminated process's carrier goes back to the freelist.
func (e *Engine) dispatch() {
	for p := e.running; p != nil; p = e.running {
		c := p.car
		if c == nil {
			c = e.getCarrier()
			c.p = p
			p.car = c
		}
		c.resume()
		if p.terminated {
			p.car = nil
			putCarrier(c)
		}
	}
}
