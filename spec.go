package spasm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/machine"
	"spasm/internal/network"
	"spasm/internal/probe"
)

// Spec is the canonical description of one simulation run: the
// application, its scale and input seed, and the machine
// characterization it runs on.  A run is a deterministic function of its
// Spec — identical specs produce identical statistics — which is what
// makes specs content-addressable: Key and Hash give every semantically
// identical spec the same identity, so caches, trace/replay tooling and
// the spasmd service can all name runs by content.
//
// The zero value of every optional field means "the paper's default"
// (Topology "full", Seed 1, PortMode Combined, Protocol Berkeley);
// Canonical makes the defaults explicit.  App and P are mandatory.
type Spec struct {
	// App names the application ("cg", "cholesky", "ep", "fft", "is",
	// or an extension workload such as "mg").
	App string
	// Scale selects the problem size (Tiny, Small, Medium).
	Scale Scale
	// Seed varies the synthetic inputs (0 means the paper's seed, 1).
	Seed int64
	// Machine selects the characterization (Ideal, LogP, CLogP, Target).
	Machine Kind
	// Topology names the network ("" means "full"; also "cube", "mesh",
	// and the extension topologies "ring" and "torus").
	Topology string
	// P is the number of processors (mandatory, >= 1).
	P int
	// PortMode selects the LogP g-gap discipline (default Combined).
	PortMode PortMode
	// Protocol selects the coherence protocol (default Berkeley).
	Protocol Protocol
	// Adaptive arms fidelity escalation: the run starts on the flow
	// network tier (Machine must be Flow) and is redone on the detailed
	// target machine if any flow's bottleneck occupancy reaches
	// EscalatePct.  The decision is recorded on the Result (and in the
	// spasmd RunDoc).
	Adaptive bool
	// EscalatePct is the bottleneck-occupancy percentage (0-100) that
	// triggers escalation: 0 escalates on the first flow admitted, 100
	// never escalates.  Meaningful only with Adaptive.
	EscalatePct int
	// Workers is accepted for compatibility and ignored: it once asked
	// for a parallel host kernel, which was removed because it never ran
	// faster than the sequential one.  It is still validated against
	// MaxWorkers, and it stays out of Key and Hash, so two specs that
	// differ only in Workers share one content address.
	Workers int
}

// Canonical returns the spec with every defaulted field made explicit.
// Two specs that differ only in whether defaults are spelled out have
// the same canonical form, and therefore the same Key and Hash.
func (s Spec) Canonical() Spec {
	if s.Topology == "" {
		s.Topology = "full"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if !s.Adaptive {
		// EscalatePct is meaningless without Adaptive; zeroing it keeps
		// semantically identical specs on one key.
		s.EscalatePct = 0
	}
	if s.Workers < 0 {
		// Negative worker counts mean the same thing as 0.
		s.Workers = 0
	}
	return s
}

// Validate checks every enumerated field of the spec against its set of
// known values, reporting the valid choices for any it rejects;
// topology/processor-count compatibility (e.g. the cube needing a power
// of two) is checked when the run is built.
func (s Spec) Validate() error {
	if s.App == "" {
		return fmt.Errorf("spasm: spec has no application (have %v + %v)", Apps(), ExtendedApps())
	}
	if !knownApp(s.App) {
		return fmt.Errorf("spasm: unknown application %q (have %v + %v)", s.App, Apps(), ExtendedApps())
	}
	if s.Scale < Tiny || s.Scale > Medium {
		return fmt.Errorf("spasm: unknown scale %v (have tiny, small, medium)", s.Scale)
	}
	if !knownKind(s.Machine) {
		return fmt.Errorf("spasm: unknown machine %v (have %v)", s.Machine, machine.Kinds())
	}
	if topo := s.Canonical().Topology; !knownTopology(topo) {
		return fmt.Errorf("spasm: unknown topology %q (have %v)", topo, network.Names())
	}
	if s.P < 1 {
		return fmt.Errorf("spasm: spec needs P >= 1, got %d", s.P)
	}
	if max := machine.MaxPFor(s.Machine); s.P > max {
		return fmt.Errorf("spasm: P=%d exceeds the %v machine's limit of %d processors",
			s.P, s.Machine, max)
	}
	if s.PortMode != CombinedGap && s.PortMode != PerClassGap {
		return fmt.Errorf("spasm: unknown port mode %v (have combined, per-class)", s.PortMode)
	}
	if s.Protocol < BerkeleyProtocol || s.Protocol > UpdateProtocol {
		return fmt.Errorf("spasm: unknown protocol %v (have berkeley, msi, update)", s.Protocol)
	}
	if s.EscalatePct < 0 || s.EscalatePct > 100 {
		return fmt.Errorf("spasm: escalation threshold %d%% outside 0-100", s.EscalatePct)
	}
	if s.Adaptive && s.Machine != Flow {
		return fmt.Errorf("spasm: adaptive fidelity starts on the flow tier; spec has machine %v (want %v)",
			s.Machine, Flow)
	}
	if s.Workers > MaxWorkers {
		return fmt.Errorf("spasm: %d workers exceeds the limit of %d", s.Workers, MaxWorkers)
	}
	return nil
}

// MaxWorkers bounds Spec.Workers (and the spasmd wire field), which is
// accepted and ignored; the bound keeps the wire contract unchanged.
const MaxWorkers = 256

func knownKind(k Kind) bool {
	for _, v := range machine.Kinds() {
		if v == k {
			return true
		}
	}
	return false
}

func knownTopology(name string) bool {
	for _, n := range network.Names() {
		if n == name {
			return true
		}
	}
	return false
}

func knownApp(name string) bool {
	for _, n := range apps.Names() {
		if n == name {
			return true
		}
	}
	for _, n := range apps.ExtendedNames() {
		if n == name {
			return true
		}
	}
	return false
}

// Key returns the spec's canonical string form: a fixed field order with
// all defaults made explicit, so any two semantically identical specs —
// however they were constructed — yield byte-identical keys.  It is
// stable across processes and releases of this package, making it safe
// to persist (result caches, trace archives, replay manifests).
func (s Spec) Key() string {
	c := s.Canonical()
	return fmt.Sprintf("app=%s scale=%v seed=%d machine=%v topo=%s p=%d port=%v proto=%v adaptive=%t esc=%d",
		c.App, c.Scale, c.Seed, c.Machine, c.Topology, c.P, c.PortMode, c.Protocol,
		c.Adaptive, c.EscalatePct)
}

// Hash returns the hex SHA-256 of Key — the spec's content address.
// The spasmd service uses it as the run ID.
func (s Spec) Hash() string {
	sum := sha256.Sum256([]byte(s.Key()))
	return hex.EncodeToString(sum[:])
}

// Config returns the machine configuration the spec describes.
func (s Spec) Config() Config {
	c := s.Canonical()
	return Config{
		Kind:     c.Machine,
		Topology: c.Topology,
		P:        c.P,
		PortMode: c.PortMode,
		Protocol: c.Protocol,
	}
}

// RunSpec builds and simulates the run a canonical spec describes.  It
// is equivalent to Run (or RunExtended, for extension workloads) with
// the spec's fields, and exists so that everything content-addressed by
// Spec.Key — the spasmd result cache above all — executes runs through
// one canonical path.
func RunSpec(spec Spec) (*Result, error) {
	return RunSpecControlled(spec, nil, RunControl{})
}

// newProgram builds the program a spec names, trying the paper suite
// first and the extension workloads second.
func newProgram(spec Spec) (app.Program, error) {
	prog, err := apps.New(spec.App, spec.Scale, spec.Seed)
	if err != nil {
		var extErr error
		prog, extErr = apps.NewExtended(spec.App, spec.Scale, spec.Seed)
		if extErr != nil {
			return nil, err
		}
	}
	return prog, nil
}

// RunSpecProfiled is RunSpec with a telemetry profiler attached; it is
// the canonical path behind the spasmd /v1/runs/{id}/profile endpoint.
// Profiles inherit RunSpec's determinism: the same spec always yields a
// byte-identical encoded profile.  An adaptive spec resolves its network
// tier first (the flow attempt, escalating on the contention threshold
// exactly as RunSpec does) and the resolved tier's run is the one
// profiled, so the profile always describes the run whose statistics
// are returned.
func RunSpecProfiled(spec Spec) (*Result, *Profile, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	if spec.Adaptive {
		res, err := RunSpec(spec)
		if err != nil {
			return nil, nil, err
		}
		resolved := spec
		resolved.Adaptive = false
		resolved.EscalatePct = 0
		resolved.Machine = res.Config.Kind
		prof, err := profileSpec(resolved)
		if err != nil {
			return nil, nil, err
		}
		// Identical specs yield identical runs, so the profiled rerun's
		// statistics match the adaptive run's; the escalation record is
		// carried over onto the profiled result.
		prof.res.Escalation = res.Escalation
		return prof.res, prof.profile, nil
	}
	prog, err := newProgram(spec)
	if err != nil {
		return nil, nil, err
	}
	pr := probe.New(probe.Config{})
	res, err := app.RunInstrumented(prog, spec.Config(), nil, pr)
	if err != nil {
		return nil, nil, err
	}
	return res, pr.Profile(), nil
}

// profiledRun pairs a run with its telemetry profile.
type profiledRun struct {
	res     *Result
	profile *Profile
}

// profileSpec runs a non-adaptive spec with a profiler attached.
func profileSpec(spec Spec) (profiledRun, error) {
	prog, err := newProgram(spec)
	if err != nil {
		return profiledRun{}, err
	}
	pr := probe.New(probe.Config{})
	res, err := app.RunInstrumented(prog, spec.Config(), nil, pr)
	if err != nil {
		return profiledRun{}, err
	}
	return profiledRun{res, pr.Profile()}, nil
}
