package spasm

// The benchmark harness regenerates every figure of the paper's
// evaluation section, one benchmark per figure, reporting the figure's
// metric for the three machine characterizations as custom benchmark
// metrics (target_us, clogp_us, logp_us) alongside the usual ns/op of
// running the simulations themselves.  The simulation-cost comparison
// and the g-discipline ablation from section 7 have their own benchmarks.
//
// Benchmarks run at Tiny scale with a short sweep so `go test -bench=.`
// completes quickly; `cmd/experiments` regenerates the figures at the
// paper's full sweep.

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// benchProcs is the sweep used by the figure benchmarks.
var benchProcs = []int{4, 8}

func benchFigure(b *testing.B, num int) {
	b.Helper()
	fig, err := FigureByNumber(num)
	if err != nil {
		b.Fatal(err)
	}
	var last *FigureResult
	for i := 0; i < b.N; i++ {
		s := NewSession(Options{Scale: Tiny, Procs: benchProcs})
		fr, err := s.Figure(fig)
		if err != nil {
			b.Fatal(err)
		}
		last = fr
	}
	// Report the final sweep point of each machine's curve.
	for _, series := range last.Series {
		pt := series.Points[len(series.Points)-1]
		b.ReportMetric(pt.Value, fmt.Sprintf("%v_us", series.Machine))
	}
}

func BenchmarkFig01_FFT_Full_Latency(b *testing.B)         { benchFigure(b, 1) }
func BenchmarkFig02_CG_Full_Latency(b *testing.B)          { benchFigure(b, 2) }
func BenchmarkFig03_EP_Full_Latency(b *testing.B)          { benchFigure(b, 3) }
func BenchmarkFig04_IS_Full_Latency(b *testing.B)          { benchFigure(b, 4) }
func BenchmarkFig05_CHOLESKY_Full_Latency(b *testing.B)    { benchFigure(b, 5) }
func BenchmarkFig06_IS_Full_Contention(b *testing.B)       { benchFigure(b, 6) }
func BenchmarkFig07_IS_Mesh_Contention(b *testing.B)       { benchFigure(b, 7) }
func BenchmarkFig08_FFT_Cube_Contention(b *testing.B)      { benchFigure(b, 8) }
func BenchmarkFig09_CHOLESKY_Full_Contention(b *testing.B) { benchFigure(b, 9) }
func BenchmarkFig10_EP_Full_Contention(b *testing.B)       { benchFigure(b, 10) }
func BenchmarkFig11_EP_Mesh_Contention(b *testing.B)       { benchFigure(b, 11) }
func BenchmarkFig12_EP_Full_ExecTime(b *testing.B)         { benchFigure(b, 12) }
func BenchmarkFig13_FFT_Mesh_ExecTime(b *testing.B)        { benchFigure(b, 13) }
func BenchmarkFig14_IS_Full_ExecTime(b *testing.B)         { benchFigure(b, 14) }
func BenchmarkFig15_CG_Full_ExecTime(b *testing.B)         { benchFigure(b, 15) }
func BenchmarkFig16_CHOLESKY_Full_ExecTime(b *testing.B)   { benchFigure(b, 16) }
func BenchmarkFig17_CG_Mesh_ExecTime(b *testing.B)         { benchFigure(b, 17) }
func BenchmarkFig18_CHOLESKY_Mesh_ExecTime(b *testing.B)   { benchFigure(b, 18) }
func BenchmarkFig19_CG_Mesh_Contention(b *testing.B)       { benchFigure(b, 19) }
func BenchmarkFig20_CHOLESKY_Mesh_Contention(b *testing.B) { benchFigure(b, 20) }

// BenchmarkSimulationCost measures the cost of simulating each machine
// characterization over the full application suite — the paper's
// section-7 "Speed of Simulation" comparison.  ns/op IS the result here:
// compare the three sub-benchmarks.
func BenchmarkSimulationCost(b *testing.B) {
	for _, kind := range []Kind{Target, CLogP, LogP, Flow} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				events = 0
				for _, name := range Apps() {
					res, err := Run(name, Tiny, 1, Config{
						Kind: kind, Topology: "full", P: 8,
					})
					if err != nil {
						b.Fatal(err)
					}
					events += res.Stats.SimEvents
				}
			}
			b.ReportMetric(float64(events), "sim_events")
		})
	}
}

// BenchmarkFidelitySweep runs the fidelity-comparison study — the full
// application suite on the flow, LogP, and detailed network tiers — at
// 64 processors, and reports both cost axes of the comparison:
//
//   - engine events (sim_events_*): the discrete events the simulation
//     kernel dispatched, dominated by the application's own references;
//   - network-model events (net_events_*): each tier's own unit of
//     network work — per-hop resource reservations for the detailed
//     fabric, bandwidth-allocation recomputations for the flow tier.
//
// event_ratio is detailed/flow on the network-model axis: the flow
// tier's whole point is that an uncontended flow costs zero allocation
// work and a contended one costs a single recomputation, while the
// per-hop model pays len(route)+2 reservations for every message
// regardless of load.  The study runs on the mesh, where detailed
// routes are longest and the per-hop tier works hardest.
func BenchmarkFidelitySweep(b *testing.B) {
	const p = 64
	var rows []FidelityRow
	for i := 0; i < b.N; i++ {
		s := NewSession(Options{Scale: Small})
		var err error
		rows, err = s.FidelityStudy("mesh", p)
		if err != nil {
			b.Fatal(err)
		}
	}
	var tgtNet, flNet uint64
	var flErr float64
	for _, r := range rows {
		tgtNet += r.TargetNetEvents
		flNet += r.FlowNetEvents
		if e := r.FlowErrPct; e < 0 {
			flErr += -e
		} else {
			flErr += e
		}
	}
	if flNet == 0 {
		flNet = 1
	}
	b.ReportMetric(float64(tgtNet), "net_events_target")
	b.ReportMetric(float64(flNet), "net_events_flow")
	b.ReportMetric(float64(tgtNet)/float64(flNet), "event_ratio")
	b.ReportMetric(flErr/float64(len(rows)), "flow_abs_err_pct")
}

// BenchmarkSweepThroughput measures end-to-end sweep throughput on a
// 30-point Tiny sweep (every application x the three networked machines
// x p in {4, 8} on the full network), two ways:
//
//   - fresh:  the status quo before the batch scheduler — sequential
//     runs, every run constructing its engine, address space, and
//     machine from scratch.
//   - pooled: the same points through RunMany — the batch scheduler at
//     Parallel=GOMAXPROCS with per-worker context pools.
//
// Compare the runs/sec metric between the two; allocs/run shows the
// construction cost the pool amortizes away.  Each iteration uses a
// fresh session, so nothing is ever served from a session cache — every
// point is simulated every time.
func BenchmarkSweepThroughput(b *testing.B) {
	var points []BatchPoint
	for _, app := range Apps() {
		for _, kind := range []Kind{LogP, CLogP, Target} {
			for _, p := range benchProcs {
				points = append(points, BatchPoint{App: app, Topology: "full", Kind: kind, P: p})
			}
		}
	}
	measure := func(b *testing.B, sweep func() error) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if err := sweep(); err != nil {
				b.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		runs := float64(b.N * len(points))
		b.ReportMetric(runs/elapsed.Seconds(), "runs/sec")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/runs, "allocs/run")
	}
	b.Run("fresh", func(b *testing.B) {
		measure(b, func() error {
			for _, pt := range points {
				_, err := Run(pt.App, Tiny, 1, Config{Kind: pt.Kind, Topology: pt.Topology, P: pt.P})
				if err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("pooled", func(b *testing.B) {
		measure(b, func() error {
			_, err := RunMany(Options{Scale: Tiny, Parallel: runtime.GOMAXPROCS(0)}, points)
			return err
		})
	})
}

// BenchmarkLargeP measures the large-P hot paths: the uniform
// synthetic-traffic workload on the flow and LogP tiers at 256 and 1024
// processors (the torus keeps link state linear in P), and at the
// 65536-processor kind limit on the hypercube (whose O(log P) routes
// keep a run this wide tractable; torus routes are O(sqrt P) and the
// flow tier's competitor walks along them make 65536 prohibitive).  Two
// metrics matter beyond ns/op:
//
//   - events_per_sec: kernel event throughput — the number the sparse
//     directory, on-demand routing, ladder event queue, and O(touched)
//     reset work exist to keep flat as P grows;
//   - B/op (via ReportAllocs): bytes allocated per complete run — the
//     memory-regression gate's input.  A per-message allocation sneaking
//     back into a large-P path shows up here multiplied by the entire
//     traffic volume.
//
// The p65536 cases take minutes per iteration; CI's regression gates run
// only the p256/p1024 cases, and recordings cover the wide cases at
// -benchtime 1x.
func BenchmarkLargeP(b *testing.B) {
	cases := []struct {
		kind Kind
		p    int
		topo string
	}{
		{Flow, 256, "torus"}, {Flow, 1024, "torus"},
		{LogP, 256, "torus"}, {LogP, 1024, "torus"},
		{Flow, 65536, "cube"}, {LogP, 65536, "cube"},
	}
	for _, c := range cases {
		c := c
		b.Run(fmt.Sprintf("%v/p%d", c.kind, c.p), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				res, err := RunExtended("uniform", Tiny, 1, Config{
					Kind: c.kind, Topology: c.topo, P: c.p,
				})
				if err != nil {
					b.Fatal(err)
				}
				events = res.Stats.SimEvents
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events_per_sec")
		})
	}
}

// BenchmarkGapAblation reproduces the section-7 experiment: contention
// of FFT on the cube under the strict LogP gap versus the
// per-event-class gap, against the target machine.
func BenchmarkGapAblation(b *testing.B) {
	var rows []AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = GapAblation(Tiny, 1, []int{8})
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[len(rows)-1]
	b.ReportMetric(r.Target, "target_us")
	b.ReportMetric(r.CombinedGap, "combined_us")
	b.ReportMetric(r.PerClassGap, "perclass_us")
}

// BenchmarkProtocolComparison runs the protocol-sensitivity study
// (Berkeley vs MSI vs write-update) and reports the suite-mean ratios.
func BenchmarkProtocolComparison(b *testing.B) {
	var rows []ProtocolRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = ProtocolComparison(Tiny, 1, "full", 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	var msi, upd float64
	for _, r := range rows {
		msi += r.MSI / r.Berkeley
		upd += r.Update / r.Berkeley
	}
	b.ReportMetric(msi/float64(len(rows)), "mean_msi_ratio")
	b.ReportMetric(upd/float64(len(rows)), "mean_update_ratio")
}

// BenchmarkTopologyStudy runs the five-topology accuracy comparison.
func BenchmarkTopologyStudy(b *testing.B) {
	var rows []TopologyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = TopologyStudy("is", Tiny, 1, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Ratio, r.Topology+"_ratio")
	}
}

// BenchmarkAccuracyDashboard regenerates all figures at bench scale and
// reports the per-metric abstraction error.
func BenchmarkAccuracyDashboard(b *testing.B) {
	var sums []AccuracySummary
	for i := 0; i < b.N; i++ {
		s := NewSession(Options{Scale: Tiny, Procs: benchProcs, Parallel: 4})
		frs, err := s.AllFigures()
		if err != nil {
			b.Fatal(err)
		}
		sums = Summarize(Accuracy(frs))
	}
	for _, s := range sums {
		name := map[Metric]string{
			LatencyOvh: "latency", ContentionOvh: "contention", ExecTime: "exec",
		}[s.Metric]
		b.ReportMetric(s.CLogPRatio, name+"_clogp_ratio")
	}
}

// BenchmarkGapTable times the analytic g derivation (section 5's table).
func BenchmarkGapTable(b *testing.B) {
	var rows []GapRow
	for i := 0; i < b.N; i++ {
		rows = GapTable([]int{2, 4, 8, 16, 32, 64})
	}
	if len(rows) != 18 {
		b.Fatalf("%d rows", len(rows))
	}
}
