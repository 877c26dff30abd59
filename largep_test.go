package spasm

// The acceptance runs for the large-P work: a 1024-processor flow-tier
// run and a 256-processor coherent Target run must complete cleanly —
// no directory panic, no route-table cliff, no per-message allocation
// blow-up — and produce self-consistent statistics.  The uniform
// synthetic-traffic workload drives them: its cost is linear in P and
// its Check replays the deterministic reference stream, so completion
// implies the traffic was exactly the scheduled traffic.

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"spasm/internal/report"
	"spasm/internal/stats"
)

func TestFlow1024Procs(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-processor run")
	}
	res, err := RunExtended("uniform", Tiny, 1, Config{Kind: Flow, Topology: "torus", P: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total <= 0 {
		t.Fatalf("run completed with non-positive total %v", res.Stats.Total)
	}
	if res.Stats.NetAccesses() == 0 {
		t.Fatal("1024-processor run carried no network traffic")
	}
	if got := len(res.Stats.Procs); got != 1024 {
		t.Fatalf("statistics cover %d processors, want 1024", got)
	}
}

func TestTarget256Procs(t *testing.T) {
	if testing.Short() {
		t.Skip("256-processor coherent run")
	}
	res, err := RunExtended("uniform", Tiny, 1, Config{Kind: Target, Topology: "mesh", P: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total <= 0 {
		t.Fatalf("run completed with non-positive total %v", res.Stats.Total)
	}
	// A coherent run at this scale must have exercised the directory:
	// uniform writes to shared blocks force invalidations.
	if res.Stats.Count(func(q *stats.Proc) uint64 { return q.Invals }) == 0 {
		t.Fatal("coherent 256-processor run produced no invalidations")
	}
}

// TestFlow1024PooledIdentical locks pooled reuse at the scale the
// large-P allocation work targets: a 1024-processor flow-tier run on a
// reused context — whose second pass rides the flow arena, the pooled
// reference PRNGs, and the ladder event queue all in their post-reset
// state — must produce a RunDoc byte-identical to a fresh run's.
func TestFlow1024PooledIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("three 1024-processor runs")
	}
	cfg := Config{Kind: Flow, Topology: "torus", P: 1024}
	fresh, err := RunExtended("uniform", Tiny, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(report.RunJSON(fresh))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewRunPool(0)
	for pass := 0; pass < 2; pass++ {
		pooled, err := RunOn("uniform", Tiny, 1, cfg, pool)
		if err != nil {
			t.Fatalf("pooled pass %d: %v", pass, err)
		}
		got, err := json.Marshal(report.RunJSON(pooled))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pooled pass %d diverged from fresh run\nfresh:  %s\npooled: %s", pass, want, got)
		}
	}
	if st := pool.Stats(); st.Hits != 1 {
		t.Fatalf("second pooled pass did not reuse the context (stats %+v)", st)
	}
}

// TestFlow256ProcsParallelIdentical runs a 256-processor flow-tier spec
// alone and then twice at once on two goroutines, which share the
// kernel's coroutine freelist (and set the ignored Workers knob): the
// concurrent runs must match the lone one at large P.
func TestFlow256ProcsParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("256-processor runs")
	}
	spec := Spec{App: "uniform", Machine: Flow, Topology: "mesh", P: 256}
	seq, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := range res {
		pspec := spec
		pspec.Workers = 4
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res[k], errs[k] = RunSpec(pspec)
		}(k)
	}
	wg.Wait()
	for k, par := range res {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if seq.Stats.Total != par.Stats.Total || seq.Stats.Messages() != par.Stats.Messages() {
			t.Fatalf("concurrent run %d diverged: %v/%d vs %v/%d",
				k, par.Stats.Total, par.Stats.Messages(), seq.Stats.Total, seq.Stats.Messages())
		}
	}
}
