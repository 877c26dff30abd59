// Command experiments regenerates the paper's evaluation: every numbered
// figure (1-20) as a table, chart and/or CSV, plus the textual
// experiments — the simulation-cost comparison, the g-discipline
// ablation, and the g-parameter table.
//
// Usage:
//
//	experiments                  # everything, tables + charts
//	experiments -fig 7           # one figure
//	experiments -jobs 8          # override the simulation parallelism
//
// The underlying simulations run -jobs at a time (default: GOMAXPROCS,
// i.e. every host core) on the batch scheduler, drawing reusable run
// contexts from the session's pool so a sweep pays machine construction
// once per configuration instead of once per run.  Each simulation is
// internally single-threaded and deterministic, so neither the job count
// nor context reuse changes a single simulated number — results are
// identical regardless of -jobs.
//
//	experiments -accuracy -format ""        # abstraction-accuracy dashboard
//	experiments -format csv -out results/   # CSV files per figure
//	experiments -speed -ablation -gtable    # only the textual experiments
//	experiments -app is -topo torus -metric contention   # ad-hoc figure
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"spasm"
)

func main() {
	var (
		figNum   = flag.Int("fig", 0, "figure number (0 = all)")
		scale    = flag.String("scale", "small", "problem scale: tiny, small, medium")
		procsStr = flag.String("procs", "2,4,8,16,32,64", "processor sweep")
		seed     = flag.Int64("seed", 1, "synthetic-input seed")
		format   = flag.String("format", "table,chart", "comma list of table, chart, csv")
		outDir   = flag.String("out", "", "write per-figure files to this directory")
		speed    = flag.Bool("speed", false, "run the simulation-cost comparison (S1)")
		fidelity = flag.Bool("fidelity", false, "run the network-fidelity comparison (flow vs logp vs detailed, S4)")
		ablation = flag.Bool("ablation", false, "run the g-discipline ablation (S2)")
		gtable   = flag.Bool("gtable", false, "print the g-parameter table (S3)")
		onlyText = flag.Bool("no-figures", false, "skip the numbered figures")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulations (results are identical regardless of job count)")
		accuracy = flag.Bool("accuracy", false, "print the abstraction-accuracy dashboard")
		adHocApp = flag.String("app", "", "ad-hoc figure: application (with -topo and -metric)")
		adHocTop = flag.String("topo", "mesh", "ad-hoc figure: topology")
		adHocMet = flag.String("metric", "contention", "ad-hoc figure: latency, contention or exec")
		profiled = flag.Bool("profile", false, "with -app: profile one target-machine run (largest -procs) instead of sweeping")
	)
	flag.Parse()

	sc, err := spasm.ParseScale(*scale)
	if err != nil {
		fail(err)
	}
	procs, err := spasm.ParseProcs(*procsStr)
	if err != nil {
		fail(err)
	}
	formats := map[string]bool{}
	for _, f := range strings.Split(*format, ",") {
		formats[strings.TrimSpace(f)] = true
	}

	s := spasm.NewSession(spasm.Options{Scale: sc, Procs: procs, Seed: *seed, Parallel: *jobs})

	if *adHocApp != "" {
		if *profiled {
			p := procs[len(procs)-1]
			if err := emitProfile(*adHocApp, *adHocTop, p, sc, *seed, *outDir); err != nil {
				fail(err)
			}
			return
		}
		metric, err := spasm.ParseMetric(*adHocMet)
		if err != nil {
			fail(err)
		}
		fr, err := s.CustomFigure(*adHocApp, *adHocTop, metric)
		if err != nil {
			fail(err)
		}
		emit(fr, formats, *outDir)
		return
	}

	if !*onlyText {
		if *figNum != 0 {
			f, err := spasm.FigureByNumber(*figNum)
			if err != nil {
				fail(err)
			}
			fr, err := s.Figure(f)
			if err != nil {
				fail(err)
			}
			emit(fr, formats, *outDir)
		} else {
			frs, err := s.AllFigures()
			if err != nil {
				fail(err)
			}
			for _, fr := range frs {
				emit(fr, formats, *outDir)
			}
			if *accuracy {
				printAccuracy(frs)
			}
		}
	}

	if *gtable {
		printGapTable(procs)
	}
	if *ablation {
		if err := printAblation(sc, *seed, procs); err != nil {
			fail(err)
		}
	}
	if *speed {
		if err := printSpeed(s, procs); err != nil {
			fail(err)
		}
	}
	if *fidelity {
		if err := printFidelity(s, *adHocTop, procs); err != nil {
			fail(err)
		}
	}
}

func emit(fr *spasm.FigureResult, formats map[string]bool, outDir string) {
	if formats["table"] {
		fmt.Println(spasm.FigureTable(fr))
	}
	if formats["chart"] {
		fmt.Println(spasm.FigureChart(fr, 78, 22))
	}
	if formats["csv"] {
		csv := spasm.FigureCSV(fr)
		if outDir == "" {
			fmt.Print(csv)
		} else {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				fail(err)
			}
			path := filepath.Join(outDir, fr.Figure.ID()+".csv")
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				fail(err)
			}
			fmt.Println("wrote", path)
		}
	}
}

// emitProfile runs one target-machine simulation with the probe
// attached and prints its per-epoch table; with -out set it also writes
// the CSV time series next to the figure CSVs.
func emitProfile(app, topo string, p int, sc spasm.Scale, seed int64, outDir string) error {
	cfg := spasm.Config{Kind: spasm.Target, Topology: topo, P: p}
	_, prof, err := spasm.RunProfiled(app, sc, seed, cfg)
	if err != nil {
		return err
	}
	fmt.Println(spasm.ProfileTable(prof))
	epoch, total := prof.Peak(spasm.Contention)
	fmt.Printf("peak contention: epoch %d (t=%v), %v summed over procs\n\n",
		epoch, prof.EpochStart(epoch), total)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, fmt.Sprintf("profile_%s_%s_p%d.csv", app, topo, p))
		if err := os.WriteFile(path, []byte(spasm.ProfileCSV(prof)), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

func printAccuracy(frs []*spasm.FigureResult) {
	rows := spasm.Accuracy(frs)
	fmt.Println("abstraction accuracy per figure (geometric-mean ratio vs target; 1.00 = exact):")
	fmt.Printf("%6s %-36s %12s %8s %12s %8s\n",
		"fig", "caption", "clogp", "trend", "logp", "trend")
	for _, r := range rows {
		fmt.Printf("%6s %-36s %11.2fx %8v %11.2fx %8v\n",
			r.Figure.ID(), r.Figure.Caption(), r.CLogPRatio, r.CLogPTrend,
			r.LogPRatio, r.LogPTrend)
	}
	fmt.Println()
	fmt.Println("summary by metric:")
	fmt.Printf("%-16s %4s %12s %10s %12s %10s\n",
		"metric", "figs", "clogp", "trend%", "logp", "trend%")
	for _, s := range spasm.Summarize(rows) {
		fmt.Printf("%-16s %4d %11.2fx %9.0f%% %11.2fx %9.0f%%\n",
			s.Metric, s.N, s.CLogPRatio, s.CLogPTrendPct, s.LogPRatio, s.LogPTrendPct)
	}
	fmt.Println()
}

func printGapTable(procs []int) {
	fmt.Println("g parameters from per-processor bisection bandwidth (section 5):")
	fmt.Printf("%6s %6s %10s\n", "topo", "p", "g_us")
	for _, row := range spasm.GapTable(procs) {
		fmt.Printf("%6s %6d %10.3f\n", row.Topology, row.P, row.G.Micros())
	}
	fmt.Println()
}

func printAblation(sc spasm.Scale, seed int64, procs []int) error {
	rows, err := spasm.GapAblation(sc, seed, procs)
	if err != nil {
		return err
	}
	fmt.Println("g-discipline ablation — FFT on cube, contention overhead (section 7):")
	fmt.Printf("%6s %14s %14s %14s\n", "p", "target_us", "combined_us", "perclass_us")
	for _, r := range rows {
		fmt.Printf("%6d %14.1f %14.1f %14.1f\n", r.P, r.Target, r.CombinedGap, r.PerClassGap)
	}
	fmt.Println()
	return nil
}

func printSpeed(s *spasm.Session, procs []int) error {
	p := procs[len(procs)-1]
	rows, err := s.SimulationCost("full", p)
	if err != nil {
		return err
	}
	fmt.Printf("simulation cost — full suite on the full network at p=%d (section 7):\n", p)
	fmt.Printf("%12s %14s %12s\n", "machine", "events", "wall")
	var target, clogp, logp float64
	for _, r := range rows {
		fmt.Printf("%12v %14d %12v\n", r.Machine, r.Events, r.Wall.Round(1000000))
		switch r.Machine {
		case spasm.Target:
			target = float64(r.Events)
		case spasm.CLogP:
			clogp = float64(r.Events)
		case spasm.LogP:
			logp = float64(r.Events)
		}
	}
	if target > 0 {
		fmt.Printf("event ratio: clogp/target = %.2f, logp/target = %.2f\n",
			clogp/target, logp/target)
	}
	fmt.Println()
	return nil
}

// printFidelity runs the network-fidelity comparison: every suite
// application on the flow, LogP, and detailed tiers at the largest
// sweep point, reporting each abstraction's execution-time error and
// the flow tier's model-event reduction.
func printFidelity(s *spasm.Session, topo string, procs []int) error {
	p := procs[len(procs)-1]
	rows, err := s.FidelityStudy(topo, p)
	if err != nil {
		return err
	}
	fmt.Printf("network fidelity — flow vs logp vs detailed on %s at p=%d:\n", topo, p)
	fmt.Printf("%10s %12s %12s %12s %9s %9s %10s\n",
		"app", "target_us", "flow_us", "logp_us", "flow_err", "logp_err", "evt_ratio")
	for _, r := range rows {
		fmt.Printf("%10s %12.1f %12.1f %12.1f %8.1f%% %8.1f%% %9.1fx\n",
			r.App, r.TargetUS, r.FlowUS, r.LogPUS, r.FlowErrPct, r.LogPErrPct, r.EventRatio)
	}
	fmt.Println()
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
