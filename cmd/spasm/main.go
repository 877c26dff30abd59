// Command spasm runs one application on one simulated machine and prints
// the SPASM-style separation of overheads.
//
// Usage:
//
//	spasm -app fft -machine target -topo mesh -p 16 -scale small
//
// Machines: ideal, flow, logp, clogp, target.  Topologies: full, cube,
// mesh, ring, torus.  With -adaptive the run starts on the flow tier
// and escalates to the detailed target machine when a flow's occupancy
// reaches -escalate percent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"spasm"
	"spasm/internal/report"
	"spasm/internal/stats"
)

func main() {
	var (
		appName = flag.String("app", "fft", "application: cg, cholesky, ep, fft, is (or extended: mg, uniform)")
		machStr = flag.String("machine", "target", "machine: ideal, flow, logp, clogp, target")
		topo    = flag.String("topo", "full", "topology: full, cube, mesh, ring, torus")
		p       = flag.Int("p", 8, "processors (power of two; up to 1024 on the coherent machines, more on the abstract tiers)")
		scale   = flag.String("scale", "small", "problem scale: tiny, small, medium")
		seed    = flag.Int64("seed", 1, "synthetic-input seed")
		perCls  = flag.Bool("perclass", false, "use per-event-class g gap (LogP machines)")
		adapt   = flag.Bool("adaptive", false, "adaptive fidelity: start on the flow tier, escalate to target on contention (implies -machine flow)")
		escPct  = flag.Int("escalate", 50, "with -adaptive: occupancy percent that trips escalation (0-100)")
		verbose = flag.Bool("v", false, "per-processor breakdown")
		phases  = flag.Bool("phases", false, "per-phase overhead breakdown")
		asJSON  = flag.Bool("json", false, "machine-readable output")
		profile = flag.String("profile", "", "time-resolved profile: '-' prints a per-epoch table, anything else is a CSV output path")
	)
	flag.Parse()

	kind, err := spasm.ParseKind(*machStr)
	if err != nil {
		fail(err)
	}
	sc, err := spasm.ParseScale(*scale)
	if err != nil {
		fail(err)
	}
	cfg := spasm.Config{Kind: kind, Topology: *topo, P: *p}
	if *perCls {
		cfg.PortMode = spasm.PerClassGap
	}

	var res *spasm.Result
	var prof *spasm.Profile
	if *adapt {
		spec := spasm.Spec{App: *appName, Scale: sc, Seed: *seed, Machine: spasm.Flow,
			Topology: *topo, P: *p, PortMode: cfg.PortMode,
			Adaptive: true, EscalatePct: *escPct}
		if *profile != "" {
			res, prof, err = spasm.RunSpecProfiled(spec)
		} else {
			res, err = spasm.RunSpec(spec)
		}
	} else if *profile != "" {
		res, prof, err = spasm.RunProfiled(*appName, sc, *seed, cfg)
	} else {
		res, err = spasm.Run(*appName, sc, *seed, cfg)
		if err != nil {
			// Fall back to the extension workloads (e.g. mg, uniform).
			// For a name the extension registry knows, its error is the
			// one worth reporting (a P-limit rejection, say), not the
			// core suite's "unknown application".
			for _, name := range spasm.ExtendedApps() {
				if name == *appName {
					res, err = spasm.RunExtended(*appName, sc, *seed, cfg)
					break
				}
			}
		}
	}
	if err != nil {
		fail(err)
	}
	if *asJSON {
		printJSON(res)
		return
	}
	printRun(res, *verbose)
	if *phases {
		fmt.Println()
		fmt.Print(spasm.PhaseReport(res))
	}
	if prof != nil {
		printProfile(prof, *profile)
	}
}

// printProfile surfaces the time-resolved run profile: a peak-pressure
// summary on stdout, plus either the full per-epoch table ("-") or a
// CSV file at the given path.
func printProfile(prof *spasm.Profile, dest string) {
	fmt.Println()
	epoch, total := prof.Peak(spasm.Contention)
	fmt.Printf("profile        : %d epochs of %v\n", len(prof.Epochs), prof.EpochLen)
	fmt.Printf("peak contention: epoch %d (t=%v), %v summed over procs\n",
		epoch, prof.EpochStart(epoch), total)
	if dest == "-" {
		fmt.Println()
		fmt.Print(spasm.ProfileTable(prof))
		return
	}
	if err := os.WriteFile(dest, []byte(spasm.ProfileCSV(prof)), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("profile CSV    : wrote %s\n", dest)
}

// jsonRun is the machine-readable run summary.
type jsonRun struct {
	App        string             `json:"app"`
	Machine    string             `json:"machine"`
	Topology   string             `json:"topology"`
	Procs      int                `json:"procs"`
	ExecUs     float64            `json:"exec_us"`
	Overheads  map[string]float64 `json:"overheads_us"`
	Reads      uint64             `json:"reads"`
	Writes     uint64             `json:"writes"`
	Hits       uint64             `json:"hits"`
	Misses     uint64             `json:"misses"`
	Messages   uint64             `json:"messages"`
	NetBytes   uint64             `json:"net_bytes"`
	SimEvents  uint64             `json:"sim_events"`
	NetEvents  uint64             `json:"net_model_events"`
	WallMillis float64            `json:"wall_ms"`
	EventsSec  float64            `json:"events_per_sec"`

	Escalation *report.EscalationDoc `json:"escalation,omitempty"`
}

func printJSON(res *spasm.Result) {
	r := res.Stats
	out := jsonRun{
		App:      res.Program,
		Machine:  res.Config.Kind.String(),
		Topology: res.Config.Topology,
		Procs:    r.P(),
		ExecUs:   r.Total.Micros(),
		Overheads: map[string]float64{
			"compute":    r.Sum(spasm.Compute).Micros(),
			"memory":     r.Sum(spasm.Memory).Micros(),
			"latency":    r.Sum(spasm.Latency).Micros(),
			"contention": r.Sum(spasm.Contention).Micros(),
			"sync":       r.Sum(spasm.Sync).Micros(),
		},
		Reads:      r.Count(func(p *stats.Proc) uint64 { return p.Reads }),
		Writes:     r.Count(func(p *stats.Proc) uint64 { return p.Writes }),
		Hits:       r.Count(func(p *stats.Proc) uint64 { return p.Hits }),
		Misses:     r.Count(func(p *stats.Proc) uint64 { return p.Misses }),
		Messages:   r.Messages(),
		NetBytes:   r.Count(func(p *stats.Proc) uint64 { return p.NetBytes }),
		SimEvents:  r.SimEvents,
		NetEvents:  r.NetEvents,
		WallMillis: float64(r.Wall.Microseconds()) / 1000,
		EventsSec:  r.EventsPerSec(),
	}
	out.Escalation = report.RunJSON(res).Escalation
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fail(err)
	}
}

func printRun(res *spasm.Result, verbose bool) {
	r := res.Stats
	fmt.Printf("%s on %v/%s, p=%d\n", res.Program, res.Config.Kind, res.Config.Topology, r.P())
	fmt.Printf("  execution time : %12.1f us\n", r.Total.Micros())
	for _, b := range []spasm.Bucket{spasm.Compute, spasm.Memory, spasm.Latency, spasm.Contention, spasm.Sync} {
		fmt.Printf("  %-10s sum : %12.1f us   (mean %.1f us/proc)\n",
			b, r.Sum(b).Micros(), r.Mean(b).Micros())
	}
	fmt.Printf("  references     : %d reads, %d writes\n",
		r.Count(func(p *stats.Proc) uint64 { return p.Reads }),
		r.Count(func(p *stats.Proc) uint64 { return p.Writes }))
	fmt.Printf("  cache          : %d hits, %d misses\n",
		r.Count(func(p *stats.Proc) uint64 { return p.Hits }),
		r.Count(func(p *stats.Proc) uint64 { return p.Misses }))
	fmt.Printf("  network        : %d messages, %d bytes, %d accesses\n",
		r.Messages(),
		r.Count(func(p *stats.Proc) uint64 { return p.NetBytes }),
		r.NetAccesses())
	fmt.Printf("  simulation     : %d events in %v (%.0f events/s)\n",
		r.SimEvents, r.Wall, r.EventsPerSec())
	if esc := res.Escalation; esc != nil {
		if esc.Tripped {
			fmt.Printf("  fidelity       : escalated %v -> %v at t=%.1f us (share %d, threshold %d%%)\n",
				esc.From, esc.To, esc.At.Micros(), esc.Share, esc.ThresholdPct)
		} else {
			fmt.Printf("  fidelity       : stayed on %v (threshold %d%% never reached)\n",
				esc.From, esc.ThresholdPct)
		}
	}
	if !verbose {
		return
	}
	fmt.Printf("\n%4s %12s %12s %12s %12s %12s %12s\n",
		"proc", "finish_us", "compute", "memory", "latency", "contention", "sync")
	for i := range r.Procs {
		pr := &r.Procs[i]
		fmt.Printf("%4d %12.1f %12.1f %12.1f %12.1f %12.1f %12.1f\n",
			pr.ID, pr.Finish.Micros(),
			pr.Time[spasm.Compute].Micros(), pr.Time[spasm.Memory].Micros(),
			pr.Time[spasm.Latency].Micros(), pr.Time[spasm.Contention].Micros(),
			pr.Time[spasm.Sync].Micros())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "spasm:", err)
	os.Exit(1)
}
