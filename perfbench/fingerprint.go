package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"spasm"
	"spasm/internal/report"
)

// fingerprintFile holds one line per (workload, spec) the benchmark can
// run: the workload, the spec's canonical key, and the first 16 hex
// digits of the SHA-256 of the run's RunDoc JSON.  RunDoc carries no
// host fields (report.RunJSON never sets Host), so the bytes are a pure
// function of the spec.
const fingerprintFile = "perfbench/fingerprints.tsv"

//go:embed fingerprints.tsv
var fingerprintData string

// fingerprints maps workload -> spec key -> fingerprint.
type fingerprints map[string]map[string]string

func loadFingerprints(data string) (fingerprints, error) {
	fp := fingerprints{}
	sc := bufio.NewScanner(strings.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			return nil, fmt.Errorf("%s:%d: want 3 tab-separated fields, got %d", fingerprintFile, n, len(f))
		}
		if fp[f[0]] == nil {
			fp[f[0]] = map[string]string{}
		}
		fp[f[0]][f[1]] = f[2]
	}
	return fp, sc.Err()
}

// check reports whether doc is the committed output for spec.
func (fp fingerprints) check(workload string, spec spasm.Spec, doc []byte) error {
	want, ok := fp[workload][spec.Key()]
	if !ok {
		return fmt.Errorf("no committed fingerprint for %s %q", workload, spec.Key())
	}
	if got := digest(doc); got != want {
		return fmt.Errorf("%s %q: RunDoc fingerprint %s, want %s", workload, spec.Key(), got, want)
	}
	return nil
}

func digest(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:8])
}

// runDoc is the deterministic RunDoc bytes of one run, exactly as
// spasmd encodes them.
func runDoc(res *spasm.Result) ([]byte, error) {
	return json.Marshal(report.RunJSON(res))
}

// regenerate runs every spec of every workload's universe and rewrites
// the fingerprint file.  Use it only when a change is meant to alter
// simulated results, and say so in the change.
func regenerate() error {
	var lines []string
	for _, w := range workloads {
		for _, spec := range w.universe() {
			res, err := spasm.RunSpec(spec)
			if err != nil {
				return fmt.Errorf("%s %q: %w", w.name, spec.Key(), err)
			}
			doc, err := runDoc(res)
			if err != nil {
				return err
			}
			lines = append(lines, w.name+"\t"+spec.Key()+"\t"+digest(doc))
		}
		fmt.Fprintf(os.Stderr, "fingerprinted %s\n", w.name)
	}
	sort.Strings(lines)
	return os.WriteFile(fingerprintFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
