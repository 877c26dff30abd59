// Package apps implements the paper's five-application workload suite —
// EP, IS and CG from the NAS parallel benchmarks, CHOLESKY from SPLASH,
// and the classic FFT — as execution-driven programs over the app
// framework.  Each application computes real values in host memory while
// issuing the shared-memory reference pattern of its parallel algorithm,
// so results are verifiable and control flow (lock order, dynamic task
// scheduling) genuinely depends on simulated time.
//
// The applications span the characteristics the paper's analysis relies
// on: EP and FFT are static with regular communication (EP with a much
// higher computation-to-communication ratio); IS is static but
// communication-heavy and uses locks; CG and CHOLESKY have
// data-dependent reference patterns, CHOLESKY with fully dynamic task
// scheduling.
package apps

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"spasm/internal/app"
)

// rngPool recycles PRNG state across reference streams.  A rand.Rand
// over the default source carries ~5 KB of generator state; apps draw
// two per processor per run (Body and the Check replay), which at large
// P dominated whole-run allocation — ~10 MB per 1024-processor run —
// before pooling.  Seeding fully determines the source state, so a
// pooled generator re-seeded with the same seed emits the identical
// stream a fresh one would: results are unaffected.
var rngPool = sync.Pool{New: newRngRecord}

// rngSlab is the unused tail of the chunk pool misses carve their Rand
// records from.  A cold wide run misses once per processor at once, so
// carving halves the allocations those misses cost (each source still
// needs its own).
var rngSlab struct {
	sync.Mutex
	free []rand.Rand
}

func newRngRecord() any {
	rngSlab.Lock()
	defer rngSlab.Unlock()
	if len(rngSlab.free) == 0 {
		rngSlab.free = make([]rand.Rand, 32)
	}
	r := &rngSlab.free[0]
	rngSlab.free = rngSlab.free[1:]
	*r = *rand.New(rand.NewSource(0))
	return r
}

// newRng returns a deterministic PRNG for synthetic input generation.
// Pass it to putRng when the stream is done (a defer is fine: the
// generator carries no run state, so returning it mid-unwind is safe).
func newRng(seed int64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// putRng returns a generator to the pool.
func putRng(rng *rand.Rand) { rngPool.Put(rng) }

// Instruction-cost model (cycles on the 33 MHz baseline processor).
const (
	// FlopCycles approximates one floating-point multiply-add.
	FlopCycles = 3
	// IntOpCycles approximates one integer ALU operation.
	IntOpCycles = 1
	// SqrtCycles approximates a square root or transcendental.
	SqrtCycles = 20
	// LoopCycles approximates per-iteration loop overhead.
	LoopCycles = 2
)

// Scale selects problem sizes: Tiny keeps unit tests fast, Small is the
// default for regenerating the paper's figures, Medium stresses the
// simulator.
type Scale int

const (
	Tiny Scale = iota
	Small
	Medium
)

func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Medium:
		return "medium"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale converts "tiny", "small" or "medium" to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	}
	return 0, fmt.Errorf("apps: unknown scale %q", s)
}

// Builder constructs a fresh Program instance (programs are single-use:
// one instance per run).
type Builder func(scale Scale, seed int64) app.Program

var registry = map[string]Builder{}

func register(name string, b Builder) { registry[name] = b }

// New builds the named application at the given scale.  A fresh seed
// varies the synthetic inputs; the paper's experiments use seed 1.
func New(name string, scale Scale, seed int64) (app.Program, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
	}
	return b(scale, seed), nil
}

// Names lists the registered applications in alphabetical order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// extended holds workloads beyond the paper's five-application suite;
// they are kept out of the main registry so suite-wide experiments
// reproduce the paper's exact workload set.
var extended = map[string]Builder{
	"mg":      NewMG,
	"uniform": NewUniform,
}

// NewExtended builds a named extension workload ("mg", the multigrid
// solver with hierarchical communication, or "uniform", the synthetic
// uniform-random traffic driver).
func NewExtended(name string, scale Scale, seed int64) (app.Program, error) {
	b, ok := extended[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown extended workload %q (have %v)", name, ExtendedNames())
	}
	return b(scale, seed), nil
}

// ExtendedNames lists the extension workloads.
func ExtendedNames() []string {
	names := make([]string, 0, len(extended))
	for n := range extended {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// share splits n items across P processors and returns processor id's
// half-open range; remainders go to the lowest-numbered processors.
func share(n, p, id int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = id*base + min(id, rem)
	hi = lo + base
	if id < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
