package app

import (
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Synchronization objects built from simulated shared memory.
//
// A SpinLock is a test-test&set lock: waiters re-read the lock word (a
// cache hit while the holder keeps it, per Anderson's analysis cited by
// the paper) and attempt the set only when it appears free.  A Flag is
// the condition-variable idiom the paper's EP uses: spin-read a shared
// word until a producer writes it.  On the machines with caches, a
// waiter pays the network only for its first read (the miss) and the
// read after the producer's invalidating write — exactly the behaviour
// the paper describes; on the cache-less LogP machine every probe of a
// remotely homed word crosses the network.
//
// To keep simulation cost bounded, a waiter spins SpinRounds times and
// then parks until the releasing/setting processor's write, which also
// wakes parked waiters to re-probe.  The probes issued are the
// references the machine models price; parking itself is free and its
// duration is charged to the Sync bucket.

// Spin-wait tuning shared by all synchronization objects.
const (
	// SpinRounds is how many probe rounds a waiter performs before
	// parking.
	SpinRounds = 4
	// SpinCost is the loop overhead (compare + branch) per probe
	// round, in cycles.
	SpinCost = 8
)

// wordSize is the size of a synchronization variable in bytes.
const wordSize = 8

// SpinLock is a test-test&set mutual-exclusion lock on a shared word.
type SpinLock struct {
	Name string
	addr mem.Addr

	held  bool
	owner int
	q     sim.Queue
}

// NewLock allocates a lock word homed at the given node.
func (c *Ctx) NewLock(name string, home int) *SpinLock {
	arr := c.Space.AllocAt(name, 1, wordSize, home)
	return &SpinLock{Name: name, addr: arr.At(0), owner: -1}
}

// Addr returns the lock word's address (the traffic target).
func (l *SpinLock) Addr() mem.Addr { return l.addr }

// Held reports whether the lock is currently held.
func (l *SpinLock) Held() bool { return l.held }

// Lock acquires the lock.  Every probe and the winning test&set issue
// real shared-memory references; waiting time beyond those references is
// charged to Sync.
func (l *SpinLock) Lock(p *Proc) {
	p.S.FlushLag() // materialize local time before competing for the lock
	spins := 0
	for {
		p.Read(l.addr) // test
		if !l.held {
			// The set half of the test&set: claim, then pay the
			// write that makes the claim globally visible.
			l.held = true
			l.owner = p.ID
			p.Write(l.addr)
			p.St.LockOps++
			return
		}
		if spins < SpinRounds {
			spins++
			p.spin(SpinCost)
			continue
		}
		// Park until the holder's release.  Materialize local time
		// first and re-check: a release during the flush must not be
		// missed (park-after-check is atomic with enqueueing).
		p.S.FlushLag()
		if l.held {
			t0 := p.Now()
			l.q.Wait(p.S)
			p.St.Add(stats.Sync, p.Now()-t0)
		}
		spins = 0
	}
}

// Unlock releases the lock with an invalidating write of the lock word
// and wakes any parked waiters to re-contend.
func (l *SpinLock) Unlock(p *Proc) {
	p.S.FlushLag()
	if !l.held || l.owner != p.ID {
		panic("app: Unlock of lock not held by " + p.S.Name)
	}
	l.held = false
	l.owner = -1
	p.Write(l.addr)
	l.q.WakeAll()
}

// Flag is a one-word condition variable: consumers wait for a producer's
// write, the paper's EP signalling idiom.
type Flag struct {
	Name string
	addr mem.Addr

	set bool
	q   sim.Queue
}

// NewFlag allocates a flag word homed at the given node.
func (c *Ctx) NewFlag(name string, home int) *Flag {
	arr := c.Space.AllocAt(name, 1, wordSize, home)
	return &Flag{Name: name, addr: arr.At(0)}
}

// Addr returns the flag word's address.
func (f *Flag) Addr() mem.Addr { return f.addr }

// IsSet reports the flag's current value without issuing a reference.
func (f *Flag) IsSet() bool { return f.set }

// Wait spins (then parks) until the flag is set.  The first probe and
// the probe after the setter's invalidation are the network-visible
// references on the cached machines.
func (f *Flag) Wait(p *Proc) {
	p.S.FlushLag() // materialize local time before sampling the flag
	spins := 0
	for {
		p.Read(f.addr)
		if f.set {
			return
		}
		if spins < SpinRounds {
			spins++
			p.spin(SpinCost)
			continue
		}
		// Flush-then-recheck so a Set during the flush is not missed.
		p.S.FlushLag()
		if !f.set {
			t0 := p.Now()
			f.q.Wait(p.S)
			p.St.Add(stats.Sync, p.Now()-t0)
		}
		spins = 0
	}
}

// Set raises the flag with an invalidating write and wakes waiters.
func (f *Flag) Set(p *Proc) {
	p.S.FlushLag()
	f.set = true
	p.Write(f.addr)
	f.q.WakeAll()
}

// Clear lowers the flag (for reuse across phases).
func (f *Flag) Clear(p *Proc) {
	p.S.FlushLag()
	f.set = false
	p.Write(f.addr)
}

// Barrier is a centralized sense-reversing barrier: a lock-protected
// arrival counter plus a release word all waiters spin on — the standard
// shared-memory barrier of the era, with all of its O(P) traffic.
type Barrier struct {
	Name string
	n    int

	lock      *SpinLock
	countAddr mem.Addr
	flagAddr  mem.Addr

	count int
	sense bool
	q     sim.Queue
}

// NewBarrier allocates a barrier for n participants with its counter and
// release word homed at the given node.
func (c *Ctx) NewBarrier(name string, n, home int) *Barrier {
	arr := c.Space.AllocAt(name, 2, wordSize, home)
	return &Barrier{
		Name:      name,
		n:         n,
		lock:      c.NewLock(name+".lock", home),
		countAddr: arr.At(0),
		flagAddr:  arr.At(1),
	}
}

// Arrive synchronizes the calling processor with the other n-1.
func (b *Barrier) Arrive(p *Proc) {
	p.S.FlushLag() // arrival order is defined by materialized local time
	my := !b.sense

	b.lock.Lock(p)
	p.Read(b.countAddr)
	b.count++
	last := b.count == b.n
	p.Write(b.countAddr)
	b.lock.Unlock(p)

	if last {
		b.count = 0
		b.sense = my
		p.Write(b.flagAddr) // release write invalidates all spinners
		b.q.WakeAll()
		p.St.BarrierOps++
		return
	}
	spins := 0
	for {
		p.Read(b.flagAddr)
		if b.sense == my {
			break
		}
		if spins < SpinRounds {
			spins++
			p.spin(SpinCost)
			continue
		}
		// Flush-then-recheck so a release during the flush is not
		// missed.
		p.S.FlushLag()
		if b.sense != my {
			t0 := p.Now()
			b.q.Wait(p.S)
			p.St.Add(stats.Sync, p.Now()-t0)
		}
		spins = 0
	}
	p.St.BarrierOps++
}
