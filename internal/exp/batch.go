package exp

import (
	"sync"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/machine"
	"spasm/internal/runpool"
	"spasm/internal/stats"
)

// BatchPoint is one sweep point for RunBatch/RunMany: an (application,
// topology, machine, P) combination at the session's scale and seed.
type BatchPoint struct {
	App      string
	Topology string
	Kind     machine.Kind
	P        int
}

func (b BatchPoint) key() runKey { return runKey{b.App, b.Topology, b.Kind, b.P} }

// RunBatch executes a set of sweep points on a bounded worker pool
// (Options.Parallel workers; 1 when unset) and returns their statistics
// in input order: out[i] is the result for points[i], whatever order the
// workers finished in.  Duplicate points and points already in the
// session cache are simulated once.  Workers draw run contexts from the
// session's shared pool (internal/runpool) — each context belongs to one
// worker between checkout and return, so a sweep pays machine
// construction roughly once per configuration, not once per run, and
// the pool's idle cap bounds peak memory on sweeps spanning many
// configurations.
//
// Every simulation is single-threaded and a pure function of its
// combination, so results are bit-identical regardless of worker count
// or scheduling.  All points are attempted even after a failure; the
// returned error is the first failing point's, in batch order, and
// successful results are still cached in the session.
func (s *Session) RunBatch(points []BatchPoint) ([]*stats.Run, error) {
	out := make([]*stats.Run, len(points))

	// Resolve session-cache hits and dedupe the remainder, keeping
	// first-appearance order so error selection is deterministic.
	type job struct {
		pt  BatchPoint
		dst []int // positions in out to fill
	}
	var jobs []*job
	index := map[runKey]*job{}
	for i, pt := range points {
		k := pt.key()
		if r, ok := s.lookup(k.String()); ok {
			out[i] = r
			continue
		}
		j, ok := index[k]
		if !ok {
			j = &job{pt: pt}
			index[k] = j
			jobs = append(jobs, j)
		}
		j.dst = append(j.dst, i)
	}
	if len(jobs) == 0 {
		return out, nil
	}

	workers := s.opt.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	results := make([]*stats.Run, len(jobs))
	errs := make([]error, len(jobs))
	work := make(chan int, len(jobs))
	for j := range jobs {
		work <- j
	}
	close(work)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := s.pool
			if s.opt.Runner != nil {
				pool = nil // the Runner executes elsewhere
			}
			for j := range work {
				pt := jobs[j].pt
				r, err := s.simulate(pt.App, pt.Topology, pt.Kind, pt.P, pool)
				if err != nil {
					errs[j] = err
					continue
				}
				results[j] = r
				s.store(pt.key().String(), r)
			}
		}()
	}
	wg.Wait()

	for j, jb := range jobs {
		if errs[j] != nil {
			return out, errs[j]
		}
		for _, i := range jb.dst {
			out[i] = results[j]
		}
	}
	return out, nil
}

// RunMany executes the sweep points in a fresh session with the given
// options and returns their statistics in input order — the one-shot
// form of Session.RunBatch for callers without a session to share.
func RunMany(opt Options, points []BatchPoint) ([]*stats.Run, error) {
	return NewSession(opt).RunBatch(points)
}

// simulate executes one combination, bypassing the session cache.  With
// a Runner injected (the service layer) the combination is delegated to
// it; otherwise the program is built and run locally — on pooled
// contexts when pool is non-nil, fresh ones when it is nil.
func (s *Session) simulate(appName, topo string, kind machine.Kind, p int, pool *runpool.Pool) (*stats.Run, error) {
	if s.opt.Runner != nil {
		return s.opt.Runner(appName, topo, kind, p)
	}
	prog, err := apps.New(appName, s.opt.Scale, s.opt.Seed)
	if err != nil {
		// Ad-hoc figures may sweep the extension workloads too.
		var extErr error
		prog, extErr = apps.NewExtended(appName, s.opt.Scale, s.opt.Seed)
		if extErr != nil {
			return nil, err
		}
	}
	res, err := app.RunPooledControlled(prog, machine.Config{
		Kind:     kind,
		Topology: topo,
		P:        p,
		PortMode: s.opt.PortMode,
	}, pool, app.RunControl{Timeout: s.opt.RunTimeout})
	if err != nil {
		return nil, err
	}
	return res.Stats, nil
}
