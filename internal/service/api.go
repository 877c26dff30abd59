package service

import (
	"encoding/json"
	"fmt"

	"spasm"
	"spasm/internal/coherence"
	"spasm/internal/logp"
)

// RunRequest is the wire form of a run submission (POST /v1/runs).
// Omitted fields take the paper's defaults: scale "small", seed 1,
// machine "target", topology "full", port_mode "combined", protocol
// "berkeley".  App and p are mandatory.
type RunRequest struct {
	App      string `json:"app"`
	Scale    string `json:"scale,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Machine  string `json:"machine,omitempty"`
	Topology string `json:"topology,omitempty"`
	P        int    `json:"p"`
	PortMode string `json:"port_mode,omitempty"`
	Protocol string `json:"protocol,omitempty"`

	// Adaptive requests the adaptive-fidelity protocol: machine must be
	// "flow", and the run escalates to the detailed tier when a flow's
	// occupancy reaches EscalatePct percent.  The result's "escalation"
	// field records the decision either way.
	Adaptive    bool `json:"adaptive,omitempty"`
	EscalatePct int  `json:"escalate_pct,omitempty"`

	// Workers is accepted for compatibility and ignored (it once asked
	// for a parallel host kernel, since removed).  It is still validated
	// against spasm.MaxWorkers and does not change the run's content
	// address: two requests differing only in workers share one run ID
	// and one cache entry.
	Workers int `json:"workers,omitempty"`
}

// Spec converts the wire request to a canonical run spec.
func (r RunRequest) Spec() (spasm.Spec, error) {
	spec := spasm.Spec{App: r.App, Seed: r.Seed, P: r.P, Topology: r.Topology,
		Adaptive: r.Adaptive, EscalatePct: r.EscalatePct, Workers: r.Workers}
	var err error
	if r.Scale == "" {
		spec.Scale = spasm.Small
	} else if spec.Scale, err = spasm.ParseScale(r.Scale); err != nil {
		return spasm.Spec{}, err
	}
	if r.Machine == "" {
		spec.Machine = spasm.Target
	} else if spec.Machine, err = spasm.ParseKind(r.Machine); err != nil {
		return spasm.Spec{}, err
	}
	if spec.PortMode, err = parsePortMode(r.PortMode); err != nil {
		return spasm.Spec{}, err
	}
	if r.Protocol != "" {
		if spec.Protocol, err = coherence.ParseProtocol(r.Protocol); err != nil {
			return spasm.Spec{}, err
		}
	}
	return spec.Canonical(), nil
}

// RequestFromSpec returns the canonical wire echo of a spec, with every
// field spelled out — the form the API reports back on job status.
func RequestFromSpec(s spasm.Spec) RunRequest {
	c := s.Canonical()
	return RunRequest{
		App:         c.App,
		Scale:       c.Scale.String(),
		Seed:        c.Seed,
		Machine:     c.Machine.String(),
		Topology:    c.Topology,
		P:           c.P,
		PortMode:    c.PortMode.String(),
		Protocol:    c.Protocol.String(),
		Adaptive:    c.Adaptive,
		EscalatePct: c.EscalatePct,
		Workers:     c.Workers,
	}
}

func parsePortMode(s string) (logp.PortMode, error) {
	switch s {
	case "", "combined":
		return logp.Combined, nil
	case "per-class", "perclass":
		return logp.PerClass, nil
	}
	return 0, fmt.Errorf("service: unknown port_mode %q (combined, per-class)", s)
}

// RunStatus is the wire form of a job's state (POST /v1/runs and
// GET /v1/runs/{id} responses).  Result is the deterministic RunDoc
// JSON (see internal/report), served byte-identically on every request
// for the same spec; it is set once the state is "done".
type RunStatus struct {
	ID     string          `json:"id"`
	State  State           `json:"state"`
	Spec   RunRequest      `json:"spec"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// statusFromEntry renders a completed cache entry as a job status.
func statusFromEntry(e *entry, cached bool) RunStatus {
	st := RunStatus{ID: e.id, State: StateDone, Spec: e.req, Cached: cached, Error: e.err, Result: e.doc}
	switch {
	case e.canceled:
		st.State = StateCanceled
	case e.err != "":
		st.State = StateFailed
	}
	return st
}

// Health is the wire form of GET /healthz.
type Health struct {
	Status     string `json:"status"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
}
