package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"

	"spasm"
)

// selfCheck runs every workload at reduced size, traced and untraced,
// and fails if the result misses a metric BENCHMARK.json names, gives
// one no unit, or if the fingerprint check accepts a wrong value.
func selfCheck() error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := checkFingerprintCheck(); err != nil {
		return err
	}
	for _, wl := range spec.Workloads {
		w, ok := workloadByName(wl.Name)
		if !ok {
			return fmt.Errorf("BENCHMARK.json names workload %q the benchmark does not have", wl.Name)
		}
		w = reduced(w)
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			res, err := measure(w, 1, 0, trace == 1)
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", w.name, trace, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s trace=%d: %d of %d operations failed", w.name, trace, res.Failed, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					return fmt.Errorf("%s trace=%d: metric %s missing", w.name, trace, m.Name)
				case got.Unit == "":
					return fmt.Errorf("%s trace=%d: metric %s has no unit", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					return fmt.Errorf("%s trace=%d: metric %s in %s, BENCHMARK.json says %s", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
		}
		fmt.Fprintf(os.Stderr, "selfcheck: %s ok\n", w.name)
	}
	fmt.Fprintln(os.Stderr, "selfcheck: ok")
	return nil
}

// reduced shrinks a workload to a few specs, one round and one restart.
func reduced(w workload) workload {
	specs := w.specs
	w.specs = func(rng *rand.Rand) []spasm.Spec {
		s := specs(rng)
		return s[:min(len(s), 4)]
	}
	w.svc = svcShape{clients: w.svc.clients, coldBefore: 2, hitsPer: 1, restarts: 1}
	w.minRounds = 1
	return w
}

// checkFingerprintCheck runs one spec of each workload and confirms the
// fingerprint check accepts its committed value and rejects a wrong one.
func checkFingerprintCheck() error {
	fp, err := loadFingerprints(fingerprintData)
	if err != nil {
		return err
	}
	for _, w := range workloads {
		spec := w.universe()[0]
		p := directPass(w, []spasm.Spec{spec}, fp, &speedo{})
		doc, ok := p.docs[spec.Key()]
		if !ok || p.failed > 0 {
			return fmt.Errorf("%s: committed fingerprint rejected for %q", w.name, spec.Key())
		}
		wrong := fingerprints{w.name: {spec.Key(): flip(fp[w.name][spec.Key()])}}
		if wrong.check(w.name, spec, doc) == nil {
			return errors.New("fingerprint check accepted a deliberately wrong expected value")
		}
	}
	return nil
}

// flip changes the first hex digit of a fingerprint.
func flip(fp string) string {
	if fp == "" {
		return "0"
	}
	c := byte('0')
	if fp[0] == '0' {
		c = '1'
	}
	return string(c) + fp[1:]
}
