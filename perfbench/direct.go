package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"spasm"
	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/coherence"
	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/service/store"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// tally counts operations and the ones that failed or were wrong.
type tally struct {
	attempted, failed int
}

func (t *tally) fail(err error) {
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// pass is one untraced pass over a run list through spasm.RunSpec.
type pass struct {
	tally
	wall  time.Duration // host time inside RunSpec, summed over runs
	alloc uint64        // heap bytes allocated inside RunSpec
	runs  []runCost
	// runMS and docs are keyed by spec key: each run's host time at
	// the reference speed, and its RunDoc bytes, which the service
	// round compares against.
	runMS map[string]float64
	docs  map[string][]byte
}

// runCost is what one run of a pass cost.  slot names the run without
// its input seed: runs in one slot do the same work on other inputs.
type runCost struct {
	key, slot  string
	wall       time.Duration
	refs, msgs uint64
	// speed brings wall to the reference host speed (see speed.go).
	speed float64
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func refCount(r *stats.Run) uint64 {
	return r.Count(func(p *stats.Proc) uint64 { return p.Reads + p.Writes })
}

// directPass runs specs one at a time, timing only the RunSpec calls,
// and checks every RunDoc against its committed fingerprint.  The whole
// pass, or each run if the workload's runs are long, sits between two
// probes of the host's speed.
func directPass(w workload, specs []spasm.Spec, fp fingerprints, sp *speedo) pass {
	ps := pass{runMS: map[string]float64{}, docs: map[string][]byte{}}
	// Start on a collected heap, so that the pass does not pay for
	// collecting the garbage of whatever ran before it.
	runtime.GC()
	if !w.probeEachRun {
		ps.timed(sp, func() {
			for _, spec := range specs {
				ps.run(w, spec, fp)
			}
		})
		return ps
	}
	for _, spec := range specs {
		ps.timed(sp, func() { ps.run(w, spec, fp) })
	}
	return ps
}

// timed runs fn between two speed probes and scales the runs it added.
func (ps *pass) timed(sp *speedo, fn func()) {
	n0 := len(ps.runs)
	f, _ := sp.around(1, func() error {
		fn()
		return nil
	})
	for i := n0; i < len(ps.runs); i++ {
		r := &ps.runs[i]
		r.speed = f
		ps.runMS[r.key] = f * ms(r.wall)
	}
}

func (ps *pass) run(w workload, spec spasm.Spec, fp fingerprints) {
	ps.attempted++
	a0 := heapAllocBytes()
	t0 := time.Now()
	res, err := spasm.RunSpec(spec)
	dt := time.Since(t0)
	ps.alloc += heapAllocBytes() - a0
	if err != nil {
		ps.fail(err)
		return
	}
	ps.wall += dt
	doc, err := runDoc(res)
	if err == nil {
		err = fp.check(w.name, spec, doc)
	}
	if err != nil {
		ps.fail(err)
		return
	}
	ps.runs = append(ps.runs, runCost{key: spec.Key(), slot: slotOf(spec), wall: dt,
		refs: refCount(res.Stats), msgs: res.Stats.Messages()})
	ps.docs[spec.Key()] = doc
}

func slotOf(spec spasm.Spec) string {
	spec.Seed = 0
	return spec.Key()
}

// layerClock splits a run's host time at the machine boundary.  The
// sequential kernel runs one simulated process at a time, so a single
// global mark suffices: each interval between two boundary crossings is
// charged to the side the running process was on when it opened.  The
// interval that opens at a machine call and ends at the next crossing
// covers the memory system, the network and the kernel handoffs they
// trigger; intervals that open on a return cover app bodies,
// generators and synchronization.
type layerClock struct {
	// epoch anchors the marks: time.Since reads only the monotonic
	// clock, half the cost of time.Now.
	epoch   time.Time
	mark    time.Duration
	inside  bool
	machine time.Duration
	calls   uint64
	stream  []ref
}

// ref is one captured machine call: the issuing node, the address, and
// the process's local time at issue.
type ref struct {
	at   sim.Time
	node int32
	addr mem.Addr
}

// enter closes the open interval, captures the call, and opens a
// machine interval after the capture, so that neither side is charged
// for the capture itself.
func (c *layerClock) enter(p *sim.Proc, node int, addr mem.Addr) {
	if c.inside {
		c.machine += time.Since(c.epoch) - c.mark
	}
	c.calls++
	c.stream = append(c.stream, ref{at: p.Now(), node: int32(node), addr: addr})
	c.mark, c.inside = time.Since(c.epoch), true
}

func (c *layerClock) exit() {
	now := time.Since(c.epoch)
	if c.inside {
		c.machine += now - c.mark
	}
	c.mark, c.inside = now, false
}

// timedMachine is the machine decorator the traced run drives.
type timedMachine struct {
	machine.Machine
	clk *layerClock
}

func (m *timedMachine) Read(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr) {
	m.clk.enter(p, node, addr)
	m.Machine.Read(p, st, node, addr)
	m.clk.exit()
}

func (m *timedMachine) Write(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr) {
	m.clk.enter(p, node, addr)
	m.Machine.Write(p, st, node, addr)
	m.clk.exit()
}

// tracedPass is one pass over a run list with the machine boundary
// timed, followed by the kernel-only and network-only replays.
type tracedPass struct {
	tally
	wall        time.Duration // host time of the traced runs
	setup       time.Duration // run time outside Stats.Wall
	machineSelf time.Duration
	appSelf     time.Duration
	calls       uint64
	appWall     map[string]time.Duration
	events      uint64
	hits        uint64
	misses      uint64
	refs        uint64
	msgs        uint64 // from run stats
	netMsgs     uint64 // from the backend's Network().Stats()
	netModel    uint64
	// kernelTime/kernelEvents come from the kernel-only replay.
	kernelTime   time.Duration
	kernelEvents uint64
	// replay holds the network-only replay totals by tier name.
	replay   map[string]replayTotal
	encodeUS []float64
	// records are the runs as spasmd persists them, for the store
	// layer's direct timing.
	records []store.Record
}

type replayTotal struct {
	time time.Duration
	msgs uint64
}

// replayTiers are the network backends the captured remote-reference
// stream is replayed through.
var replayTiers = []string{"detailed", "logp"}

func runTraced(w workload, specs []spasm.Spec, fp fingerprints) tracedPass {
	tp := tracedPass{appWall: map[string]time.Duration{}, replay: map[string]replayTotal{}}
	for _, spec := range specs {
		tp.attempted++
		if err := tp.one(w, spec.Canonical(), fp); err != nil {
			tp.fail(err)
		}
	}
	return tp
}

func (tp *tracedPass) one(w workload, spec spasm.Spec, fp fingerprints) error {
	prog, err := apps.New(spec.App, spec.Scale, spec.Seed)
	if err != nil {
		// Not a paper app: the uniform traffic app is an extension.
		if prog, err = apps.NewExtended(spec.App, spec.Scale, spec.Seed); err != nil {
			return err
		}
	}
	clk := &layerClock{epoch: time.Now()}
	var base machine.Machine
	wrap := func(m machine.Machine) machine.Machine {
		base = m
		return &timedMachine{Machine: m, clk: clk}
	}
	t0 := time.Now()
	res, err := app.RunWrapped(prog, spec.Config(), wrap)
	dt := time.Since(t0)
	if err != nil {
		return err
	}
	r := res.Stats
	tp.wall += dt
	tp.setup += dt - r.Wall
	tp.machineSelf += clk.machine
	tp.appSelf += r.Wall - clk.machine
	tp.calls += clk.calls
	tp.appWall[spec.App] += dt
	tp.events += r.SimEvents
	tp.hits += r.Count(func(p *stats.Proc) uint64 { return p.Hits })
	tp.misses += r.Count(func(p *stats.Proc) uint64 { return p.Misses })
	tp.refs += refCount(r)
	tp.msgs += r.Messages()
	if b, ok := base.(machine.Backend); ok && b.Network() != nil {
		ns := b.Network().Stats()
		tp.netMsgs += ns.Messages
		tp.netModel += ns.ModelEvents
	}

	e0 := time.Now()
	doc, err := runDoc(res)
	tp.encodeUS = append(tp.encodeUS, float64(time.Since(e0).Nanoseconds())/1e3)
	if err != nil {
		return err
	}
	if err := fp.check(w.name, spec, doc); err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	rec, err := storeRecord(spec, doc, r)
	if err != nil {
		return err
	}
	tp.records = append(tp.records, rec)
	if clk.calls != refCount(r) {
		return fmt.Errorf("%q: %d machine calls but %d references", spec.Key(), clk.calls, refCount(r))
	}

	kt, ke, err := kernelReplay(spec.P, r.SimEvents)
	if err != nil {
		return err
	}
	tp.kernelTime += kt
	tp.kernelEvents += ke

	remote := remoteStream(clk.stream, res.Space)
	clk.stream = nil
	for _, tier := range replayTiers {
		t, msgs, err := replayNetwork(tier, spec.Canonical().Topology, spec.P, remote)
		if err != nil {
			return err
		}
		prev := tp.replay[tier]
		tp.replay[tier] = replayTotal{time: prev.time + t, msgs: prev.msgs + msgs}
		// Fidelity check: on the LogP machine every remote reference
		// is one request and one reply, so the replay must carry
		// exactly the run's messages.
		if tier == "logp" && spec.Machine == spasm.LogP && msgs != r.Messages() {
			return fmt.Errorf("%q: LogP replay carried %d messages, the run %d", spec.Key(), msgs, r.Messages())
		}
	}
	return nil
}

// hop is one remote reference: a request from src to its home dst.
type hop struct {
	at       sim.Time
	src, dst int
}

func remoteStream(stream []ref, space *mem.Space) []hop {
	var out []hop
	for _, r := range stream {
		if home := space.Home(r.addr); home != int(r.node) {
			out = append(out, hop{at: r.at, src: int(r.node), dst: home})
		}
	}
	return out
}

// replayNetwork carries each remote reference as a request and a reply
// through a fresh backend of the named tier.
func replayNetwork(tier, topo string, p int, remote []hop) (time.Duration, uint64, error) {
	t, err := machine.NetworkTierByName(tier)
	if err != nil {
		return 0, 0, err
	}
	net, err := t.New(topo, p)
	if err != nil {
		return 0, 0, err
	}
	costs := coherence.DefaultCosts()
	t0 := time.Now()
	for _, h := range remote {
		req := net.Xfer(h.at, h.src, h.dst, costs.CtrlBytes)
		net.Xfer(req.At+costs.Mem, h.dst, h.src, costs.DataBytes)
	}
	return time.Since(t0), net.Stats().Messages, nil
}

// kernelReplay drives the event kernel alone at the run's processor and
// event counts: p processes, each holding for short, staggered delays,
// so consecutive events mostly belong to different processes and cost
// a goroutine handoff as in a real run.
func kernelReplay(p int, events uint64) (time.Duration, uint64, error) {
	eng := sim.NewEngine()
	holds := int(events)/p - 1
	for i := 0; i < p; i++ {
		i := i
		eng.Spawn("replay", func(sp *sim.Proc) {
			for j := 0; j < holds; j++ {
				sp.Hold(sim.Time(1 + (i+j)%7))
			}
		})
	}
	t0 := time.Now()
	err := eng.Run()
	return time.Since(t0), eng.Events, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
