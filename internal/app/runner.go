package app

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/runpool"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Failure-containment sentinels: how a controlled run reports that it
// was stopped rather than finished.  Both wrap the engine's cooperative
// abort, so by the time either is returned every simulated process has
// unwound — a stopped run leaks nothing.
var (
	// ErrRunTimeout marks a run aborted by RunControl.Timeout.
	ErrRunTimeout = errors.New("run exceeded its wall-clock timeout")
	// ErrRunCanceled marks a run aborted by RunControl.Cancel.
	ErrRunCanceled = errors.New("run canceled")
)

// RunControl carries the failure-containment knobs of one run.  The
// zero value means "run to completion" and costs nothing — the watchdog
// goroutine only exists when a knob is set.
type RunControl struct {
	// Timeout bounds the run's wall-clock execution; past it the engine
	// is interrupted and the run fails with ErrRunTimeout.
	Timeout time.Duration
	// Cancel, when non-nil, aborts the run with ErrRunCanceled once the
	// channel is closed.
	Cancel <-chan struct{}
}

func (c RunControl) enabled() bool { return c.Timeout > 0 || c.Cancel != nil }

// Ctx is the shared context of one program run: the address space the
// program allocates into, the machine it runs on, and the statistics it
// accumulates.  Programs allocate their shared data and synchronization
// objects in Setup and keep references to them for Body.
type Ctx struct {
	P     int
	Space *mem.Space
	M     machine.Machine
	Run   *stats.Run
	Eng   *sim.Engine
	// Phases holds the per-phase overhead profile, populated when the
	// program marks phase boundaries with Proc.Phase.
	Phases *PhaseProfile
}

// Program is a parallel application.  Setup runs once (unsimulated) to
// allocate shared data; Body runs once per simulated processor, in
// parallel in simulated time.  Check, if non-nil, verifies the computed
// result after the run (the execution-driven applications compute real
// values in host memory alongside their simulated references).
type Program interface {
	// Name identifies the application ("ep", "is", "fft", "cg",
	// "cholesky", ...).
	Name() string
	// Setup allocates shared arrays and synchronization objects.
	Setup(c *Ctx)
	// Body is the per-processor program.
	Body(p *Proc)
	// Check validates the application's computed results; it returns
	// an error describing the first inconsistency.
	Check() error
}

// Result bundles a run's statistics with its configuration, the machine
// it ran on, and the address space it allocated (for post-run
// inspection: invariant checks, network counters, trace metadata).
type Result struct {
	Program string
	Config  machine.Config
	Stats   *stats.Run
	Machine machine.Machine
	Space   *mem.Space
	// Phases is the per-phase overhead profile (empty unless the
	// program marks phases).
	Phases *PhaseProfile
	// Escalation records an adaptive-fidelity decision, when the run was
	// made through an adaptive runner (nil otherwise): which network tier
	// the run started on, whether the contention threshold tripped, and
	// which tier produced the statistics this Result carries.
	Escalation *Escalation
}

// Escalation is the record of one adaptive-fidelity decision.  A run
// that starts on the flow tier watches the bottleneck occupancy of every
// flow it admits; when the occupancy reaches ThresholdPct the run is
// abandoned and redone on the detailed target machine, so the cheap
// model is trusted exactly while it sees no contention worth modeling
// per hop.
type Escalation struct {
	// From and To are the network tiers the run started and finished on;
	// they are equal when the threshold never tripped.
	From, To machine.Kind
	// ThresholdPct is the bottleneck-occupancy percentage that arms the
	// escalation: 0 trips on the first flow admitted, 100 never trips
	// (flow occupancy is strictly below 100).
	ThresholdPct int
	// Tripped reports whether the threshold fired.
	Tripped bool
	// At is the simulated time of the first threshold crossing (0 when
	// the run never tripped).
	At sim.Time
	// Share is the bottleneck share count that crossed the threshold.
	Share int
}

// Instrument observes one run from the inside.  Attach is called after
// the machine is built but before any process is spawned; Finish is
// called once the simulation has completed successfully, with the final
// result.  Implementations (the telemetry profiler in internal/probe
// above all) hook the engine clock and the machine's network from
// Attach; everything an Instrument records must be a function of the
// run's configuration alone, so instrumented runs stay deterministic.
type Instrument interface {
	Attach(cfg machine.Config, eng *sim.Engine, run *stats.Run, m machine.Machine)
	Finish(res *Result)
}

// Run executes prog on a machine built from cfg with cfg.P processors
// and returns the accumulated statistics.  The simulation is
// deterministic: identical programs and configurations produce identical
// results.
func Run(prog Program, cfg machine.Config) (*Result, error) {
	return RunInstrumented(prog, cfg, nil, nil)
}

// RunWrapped is Run with a machine decorator: wrap (if non-nil) receives
// the configured machine and returns the machine the program actually
// drives — the hook used by trace recording and other instrumentation.
func RunWrapped(prog Program, cfg machine.Config, wrap func(machine.Machine) machine.Machine) (*Result, error) {
	return RunInstrumented(prog, cfg, wrap, nil)
}

// RunInstrumented is RunWrapped with an attached Instrument.  The
// instrument observes the *underlying* machine (before wrap), so a
// decorator like the trace recorder does not hide the network from it.
func RunInstrumented(prog Program, cfg machine.Config, wrap func(machine.Machine) machine.Machine, inst Instrument) (*Result, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("app: run with P=%d", cfg.P)
	}
	blockBytes := cfg.Cache.BlockBytes
	if blockBytes == 0 {
		blockBytes = mem.DefaultBlockBytes
	}
	space := mem.NewSpace(cfg.P, blockBytes)
	eng := sim.NewEngine()
	bind := func() (machine.Machine, error) { return machine.New(cfg, space) }
	return runOn(prog, cfg, space, eng, bind, wrap, inst, RunControl{})
}

// RunControlled is Run bounded by ctl: the watchdog interrupts the
// engine on timeout or cancellation, and the run fails with
// ErrRunTimeout or ErrRunCanceled (wrapped with the run's identity).
func RunControlled(prog Program, cfg machine.Config, ctl RunControl) (*Result, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("app: run with P=%d", cfg.P)
	}
	blockBytes := cfg.Cache.BlockBytes
	if blockBytes == 0 {
		blockBytes = mem.DefaultBlockBytes
	}
	space := mem.NewSpace(cfg.P, blockBytes)
	eng := sim.NewEngine()
	bind := func() (machine.Machine, error) { return machine.New(cfg, space) }
	return runOn(prog, cfg, space, eng, bind, nil, nil, ctl)
}

// RunPooled is Run on a pooled context: the engine, address space, and
// machine come from pool (reset in place) instead of being constructed,
// so a sweep pays machine construction once per configuration.  Results
// are bit-for-bit identical to Run's.  The returned Result's Machine and
// Space reference pooled state: they stay readable only until the pool
// hands the same context to another run, while Result.Stats and
// Result.Phases are freshly allocated and safe to keep.  A nil pool
// falls back to Run.
func RunPooled(prog Program, cfg machine.Config, pool *runpool.Pool) (*Result, error) {
	return RunPooledControlled(prog, cfg, pool, RunControl{})
}

// RunPooledControlled is RunPooled bounded by ctl.  Its pool discipline
// differs from RunPooled's on failure: a context whose run did not
// complete cleanly — aborted, panicked, deadlocked, or failed its result
// check — is Discarded rather than returned to the freelist, because the
// reset invariants the pool relies on (docs/INTERNALS.md §9) are only
// established for state a run finished with.  Successful runs Put their
// context back as usual.
func RunPooledControlled(prog Program, cfg machine.Config, pool *runpool.Pool, ctl RunControl) (*Result, error) {
	return RunPooledInstrumented(prog, cfg, pool, ctl, nil)
}

// RunPooledInstrumented is RunPooledControlled with an attached
// Instrument (the hook the adaptive-fidelity runner uses to watch the
// flow tier's contention from inside a pooled run).  A nil pool falls
// back to a fresh, unpooled run with the same instrument and control.
func RunPooledInstrumented(prog Program, cfg machine.Config, pool *runpool.Pool, ctl RunControl, inst Instrument) (*Result, error) {
	if pool == nil {
		if cfg.P < 1 {
			return nil, fmt.Errorf("app: run with P=%d", cfg.P)
		}
		blockBytes := cfg.Cache.BlockBytes
		if blockBytes == 0 {
			blockBytes = mem.DefaultBlockBytes
		}
		space := mem.NewSpace(cfg.P, blockBytes)
		eng := sim.NewEngine()
		bind := func() (machine.Machine, error) { return machine.New(cfg, space) }
		return runOn(prog, cfg, space, eng, bind, nil, inst, ctl)
	}
	ctx, err := pool.Get(cfg)
	if err != nil {
		return nil, err
	}
	res, err := runOn(prog, cfg, ctx.Space, ctx.Eng, ctx.Bind, nil, inst, ctl)
	if err != nil {
		pool.Discard(ctx)
		return nil, err
	}
	pool.Put(ctx)
	return res, nil
}

// runOn is the shared run core: set up the program in space, bind the
// machine (construction for fresh runs, an in-place reset for pooled
// ones — deferred until after Setup because the coherence directory is
// sized from the space footprint), spawn one process per node, and drive
// the event loop to completion.
//
// When ctl is enabled, a watchdog goroutine interrupts the engine on
// timeout or cancellation; the resulting cooperative abort unwinds every
// process and the run fails with ErrRunTimeout or ErrRunCanceled.  The
// watchdog is joined before runOn returns, so a late Interrupt can never
// poison a subsequent run on the same (pooled) engine.
func runOn(prog Program, cfg machine.Config, space *mem.Space, eng *sim.Engine,
	bind func() (machine.Machine, error),
	wrap func(machine.Machine) machine.Machine, inst Instrument, ctl RunControl) (*Result, error) {
	run := stats.NewRun(cfg.P)
	ctx := &Ctx{P: cfg.P, Space: space, Run: run, Eng: eng, Phases: newPhaseProfile()}

	if err := setupSafely(prog, ctx); err != nil {
		return nil, err
	}

	m, err := bind()
	if err != nil {
		return nil, err
	}
	base := m // the underlying machine: instruments and the network
	// backend readout see it even when a decorator wraps the run.
	if inst != nil {
		inst.Attach(cfg, eng, run, m)
	}
	if wrap != nil {
		m = wrap(m)
	}
	ctx.M = m

	// One body closure, one slab of Procs and one string holding every
	// process name serve all P processes: spawning costs a handful of
	// allocations per run rather than several per process.  The engine
	// is fresh or reset, so process IDs are the node numbers 0..P-1.
	names := procNames(prog.Name(), cfg.P)
	procs := make([]Proc, cfg.P)
	body := func(sp *sim.Proc) {
		i := sp.ID
		p := &procs[i]
		*p = Proc{ID: i, S: sp, M: m, St: &run.Procs[i], Ctx: ctx}
		prog.Body(p)
		p.closePhase()
		run.Finish(i, sp.Now())
	}
	for _, name := range names {
		eng.Spawn(name, body)
	}

	var timedOut, wasCanceled atomic.Bool
	if ctl.enabled() {
		watch := make(chan struct{})
		watchDone := make(chan struct{})
		var timer <-chan time.Time
		var stop func() bool
		var deadline time.Time
		if ctl.Timeout > 0 {
			deadline = time.Now().Add(ctl.Timeout)
			tm := time.NewTimer(ctl.Timeout)
			timer = tm.C
			stop = tm.Stop
		}
		go func() {
			defer close(watchDone)
			select {
			case <-timer:
				timedOut.Store(true)
				eng.Interrupt()
			case <-ctl.Cancel:
				wasCanceled.Store(true)
				eng.Interrupt()
			case <-watch:
			}
		}()
		defer func() {
			close(watch)
			<-watchDone
			if stop != nil {
				stop()
			}
		}()
		// Process switches are coroutine switches that never pass
		// through the Go scheduler, so the watchdog may get no turn
		// before a short run ends.  A cancellation or deadline that has
		// already happened is therefore applied here, up front.
		select {
		case <-ctl.Cancel:
			wasCanceled.Store(true)
			eng.Interrupt()
		default:
			if ctl.Timeout > 0 && !time.Now().Before(deadline) {
				timedOut.Store(true)
				eng.Interrupt()
			}
		}
	}

	t0 := time.Now()
	if err := eng.Run(); err != nil {
		var ab *sim.AbortError
		if errors.As(err, &ab) {
			switch {
			case timedOut.Load():
				err = fmt.Errorf("%w after %v (simulated time %v)", ErrRunTimeout, ctl.Timeout, ab.At)
			case wasCanceled.Load():
				err = fmt.Errorf("%w (simulated time %v)", ErrRunCanceled, ab.At)
			}
		}
		return nil, fmt.Errorf("app: %s on %v/%s p=%d: %w",
			prog.Name(), cfg.Kind, cfg.Topology, cfg.P, err)
	}
	run.Wall = time.Since(t0)
	run.SimEvents = eng.Events
	if b, ok := base.(machine.Backend); ok {
		if net := b.Network(); net != nil {
			run.NetEvents = net.Stats().ModelEvents
		}
	}

	if err := prog.Check(); err != nil {
		return nil, fmt.Errorf("app: %s result check failed: %w", prog.Name(), err)
	}
	res := &Result{
		Program: prog.Name(),
		Config:  cfg,
		Stats:   run,
		Machine: m,
		Space:   space,
		Phases:  ctx.Phases,
	}
	if inst != nil {
		inst.Finish(res)
	}
	return res, nil
}

// setupSafely runs prog.Setup, converting panics (bad sizes, invalid
// parameters) into errors so a misconfigured program fails its run
// rather than the whole process.
func setupSafely(prog Program, ctx *Ctx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("app: %s setup panicked: %v", prog.Name(), r)
		}
	}()
	prog.Setup(ctx)
	return nil
}

// procNames returns the names "<prog>/p0" … "<prog>/p<n-1>", all sliced
// out of one backing string.
func procNames(prog string, n int) []string {
	prefix := prog + "/p"
	var b strings.Builder
	b.Grow(n * (len(prefix) + 5))
	var num [20]byte
	for i := 0; i < n; i++ {
		b.WriteString(prefix)
		b.Write(strconv.AppendInt(num[:0], int64(i), 10))
	}
	all := b.String()
	names := make([]string, n)
	pos := 0
	for i := range names {
		end := pos + len(prefix) + len(strconv.AppendInt(num[:0], int64(i), 10))
		names[i] = all[pos:end]
		pos = end
	}
	return names
}
