package main

import (
	"math/rand"

	"spasm"
)

// workload is one named input family.  Each round of a run draws a run
// list from the workload's seeded generator, runs it directly through
// spasm.RunSpec (the timed pass), and then serves the same run list
// through an in-process spasmd (the service round).
//
// No workload sets Spec.Workers, Adaptive or the Flow machine: those
// paths are candidates for deletion, and a benchmark that called them
// could not measure their removal.
type workload struct {
	name string
	// specs returns one round's run list.
	specs func(rng *rand.Rand) []spasm.Spec
	// universe lists every spec specs can return; each has a committed
	// fingerprint.
	universe func() []spasm.Spec
	svc      svcShape
	// minRounds is the least number of rounds a run makes, however
	// short --seconds is.
	minRounds int
	// probeEachRun probes the host's speed around each run of a pass
	// instead of around the whole pass: worth its cost only where runs
	// are long and a pass holds few of them.
	probeEachRun bool
}

// svcShape sizes the service traffic of one round.
type svcShape struct {
	// clients is the number of closed-loop clients.
	clients int
	// coldBefore is how many of the run list's specs are computed before
	// the first restart; the rest are computed after it, beside the
	// disk reads.
	coldBefore int
	// hitsPer is the number of LRU repeats issued after each cold or
	// store request.
	hitsPer int
	// restarts is how many times the server restarts on the same store
	// directory; after each restart every stored spec is read once.
	restarts int
	// interleave mixes the cold requests with the repeats and disk
	// reads.  Without it each server lifetime runs its computations,
	// then its disk reads, then its repeats, so that repeats of large
	// documents are not timed beside multi-second simulations on the
	// same two cores.
	interleave bool
}

var (
	paperApps  = []string{"ep", "is", "fft", "cg", "cholesky"}
	paperKinds = []spasm.Kind{spasm.Target, spasm.CLogP, spasm.LogP}
)

const (
	// paperSeeds and mixSeeds size the input seed pools.  The workload
	// seed picks from them, so every input a run can draw has a
	// committed fingerprint.
	paperSeeds   = 32
	uniformSeeds = 32
	mixSeeds     = 16
	// mixPerRound is the number of new specs one service-mix round
	// computes: half before the restart, half after.
	mixPerRound = 240
	// uniformPerRound is the number of uniform runs in one wide-uniform
	// pass, each with its own input seed.
	uniformPerRound = 3
)

var workloads = []workload{
	{
		// The fidelity operating point: the only workload where the
		// memory system and the detailed fabric do most of the work.
		name: "paper-suite",
		specs: func(rng *rand.Rand) []spasm.Spec {
			// Each run draws its own input seed: the cost of a
			// cholesky run varies by some 10% with its input, and
			// independent draws average that out faster.
			return paperSpecs(func() int64 { return int64(1 + rng.Intn(paperSeeds)) })
		},
		universe: func() []spasm.Spec {
			var all []spasm.Spec
			for s := int64(1); s <= paperSeeds; s++ {
				all = append(all, paperSpecs(func() int64 { return s })...)
			}
			return all
		},
		svc: svcShape{clients: 1, coldBefore: 8, hitsPer: 4, restarts: 3},
		// A round takes 10-14 s, so more rounds than two would let a
		// slow spell of the host stretch a run well past --seconds.
		minRounds: 2,
	},
	{
		// The kernel at large P: LogP has no caches, so the memory
		// system idles and goroutine handoff in internal/sim and the
		// generator's math/rand in internal/apps take most of the time.
		name: "wide-uniform",
		specs: func(rng *rand.Rand) []spasm.Spec {
			var specs []spasm.Spec
			for _, s := range rng.Perm(uniformSeeds)[:uniformPerRound] {
				specs = append(specs, uniformSpec(int64(1+s)))
			}
			return specs
		},
		universe: func() []spasm.Spec {
			var all []spasm.Spec
			for s := int64(1); s <= uniformSeeds; s++ {
				all = append(all, uniformSpec(s))
			}
			return all
		},
		svc:          svcShape{clients: 1, coldBefore: 2, hitsPer: 8, restarts: 8},
		minRounds:    4,
		probeEachRun: true,
	},
	{
		// The service path: tiny runs, so spasmd's queue, cache, store
		// and encoder do almost all the work.
		name: "service-mix",
		specs: func(rng *rand.Rand) []spasm.Spec {
			all := mixUniverse()
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			return all[:mixPerRound]
		},
		universe:  mixUniverse,
		svc:       svcShape{clients: 2, coldBefore: mixPerRound / 2, hitsPer: 1, restarts: 2, interleave: true},
		minRounds: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// paperSpecs is the paper suite at Small scale on the 64-node mesh, on
// the three machine characterizations the paper compares.  seed gives
// each run's input seed.
func paperSpecs(seed func() int64) []spasm.Spec {
	var specs []spasm.Spec
	for _, app := range paperApps {
		for _, k := range paperKinds {
			specs = append(specs, spasm.Spec{App: app, Scale: spasm.Small, Seed: seed(),
				Machine: k, Topology: "mesh", P: 64})
		}
	}
	return specs
}

// uniformSpec is the uniform synthetic-traffic app on the 1024-node
// torus under LogP.
func uniformSpec(seed int64) spasm.Spec {
	return spasm.Spec{App: "uniform", Scale: spasm.Small, Seed: seed,
		Machine: spasm.LogP, Topology: "torus", P: 1024}
}

// mixUniverse is every tiny-scale paper run at p=16 the service-mix
// workload can submit.
func mixUniverse() []spasm.Spec {
	var all []spasm.Spec
	for s := int64(1); s <= mixSeeds; s++ {
		for _, app := range paperApps {
			for _, k := range paperKinds {
				for _, topo := range []string{"mesh", "cube"} {
					all = append(all, spasm.Spec{App: app, Scale: spasm.Tiny, Seed: s,
						Machine: k, Topology: topo, P: 16})
				}
			}
		}
	}
	return all
}
