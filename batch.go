package spasm

import (
	"errors"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/exp"
	"spasm/internal/probe"
	"spasm/internal/runpool"
)

// Batched sweeps and pooled run contexts.
type (
	// BatchPoint is one sweep point for RunMany/Session.RunBatch: an
	// (application, topology, machine, P) combination at the batch's
	// scale and seed.
	BatchPoint = exp.BatchPoint
	// RunPool is a bounded freelist of reusable run contexts keyed by
	// machine configuration; runs on a pool skip machine construction
	// after the first run of each configuration while producing
	// bit-identical results.  Safe for concurrent use.
	RunPool = runpool.Pool
	// PoolStats is a snapshot of a pool's hit/miss/live counters.
	PoolStats = runpool.Stats
)

// NewRunPool returns a run-context pool retaining at most maxIdle idle
// contexts (a sensible default when maxIdle <= 0).
func NewRunPool(maxIdle int) *RunPool { return runpool.New(maxIdle) }

// RunMany executes a batch of sweep points on a bounded worker pool
// (Options.Parallel workers) with per-worker context reuse, returning
// statistics in input order.  Duplicate points are simulated once, and
// results are bit-identical to individual Run calls regardless of worker
// count.  It is the one-shot form of Session.RunBatch.
func RunMany(opt Options, points []BatchPoint) ([]*RunStats, error) {
	return exp.RunMany(opt, points)
}

// RunOn is Run on a pooled context: the simulation engine, address
// space, and machine are drawn from pool and reset in place instead of
// constructed, so repeated runs of one configuration amortize setup.
// The returned Result's Stats and Phases are freshly allocated and safe
// to keep; its Machine and Space reference pooled state and are only
// readable until the pool reuses the context.  A nil pool behaves like
// Run.
func RunOn(appName string, scale Scale, seed int64, cfg Config, pool *RunPool) (*Result, error) {
	prog, err := apps.New(appName, scale, seed)
	if err != nil {
		var extErr error
		prog, extErr = apps.NewExtended(appName, scale, seed)
		if extErr != nil {
			return nil, err
		}
	}
	return app.RunPooled(prog, cfg, pool)
}

// RunSpecOn is RunSpec on a pooled context, with RunOn's reuse and
// lifetime semantics.  It is the path the spasmd workers use, so the
// service amortizes construction across the jobs it executes.
func RunSpecOn(spec Spec, pool *RunPool) (*Result, error) {
	return RunSpecControlled(spec, pool, RunControl{})
}

// RunControl carries the failure-containment knobs of one run: a
// wall-clock Timeout and/or a Cancel channel, either of which aborts
// the run cooperatively (every simulated-process goroutine unwinds; no
// leaks).  The zero value means "run to completion" and costs nothing.
type RunControl = app.RunControl

// Failure-containment sentinels: match these with errors.Is to tell a
// bounded run's abort reason apart from a genuine simulation failure.
var (
	// ErrRunTimeout marks a run aborted by RunControl.Timeout.
	ErrRunTimeout = app.ErrRunTimeout
	// ErrRunCanceled marks a run aborted by RunControl.Cancel.
	ErrRunCanceled = app.ErrRunCanceled
)

// RunSpecControlled is RunSpecOn bounded by ctl.  An aborted or failed
// run discards its pooled context instead of returning it to the
// freelist — half-finished simulation state never re-enters the pool —
// so the only cost of an abort is one fresh construction on the next
// run of that configuration.
func RunSpecControlled(spec Spec, pool *RunPool, ctl RunControl) (*Result, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Adaptive {
		return runAdaptive(spec, pool, ctl)
	}
	prog, err := newProgram(spec)
	if err != nil {
		return nil, err
	}
	return app.RunPooledControlled(prog, spec.Config(), pool, ctl)
}

// ErrAdaptiveProfiled marks a profiled-controlled run rejected because
// the spec is adaptive: adaptive runs resolve their network tier by
// re-running, so a single live profile cannot describe them.  Resolve
// the tier first (RunSpecProfiled does) or pin the machine explicitly.
var ErrAdaptiveProfiled = errors.New("spasm: adaptive spec cannot be live-profiled; pin the machine tier")

// RunSpecProfiledControlled is RunSpecControlled with a telemetry
// profiler attached — the worker path behind spasmd's live run
// streaming: pc.OnEpoch fires for each profile epoch as it closes
// during the run.  Profiling inherits RunSpec's determinism and does
// not perturb the simulated execution.  Adaptive specs are rejected with ErrAdaptiveProfiled.
func RunSpecProfiledControlled(spec Spec, pool *RunPool, ctl RunControl, pc ProfileConfig) (*Result, *Profile, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	if spec.Adaptive {
		return nil, nil, ErrAdaptiveProfiled
	}
	prog, err := newProgram(spec)
	if err != nil {
		return nil, nil, err
	}
	pr := probe.New(pc)
	res, err := app.RunPooledInstrumented(prog, spec.Config(), pool, ctl, pr)
	if err != nil {
		return nil, nil, err
	}
	return res, pr.Profile(), nil
}
