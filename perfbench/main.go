// Command perfbench is the repository's host-cost benchmark.  It runs
// one named workload for a fixed time, checks every output against
// committed fingerprints and against the direct simulator, and prints
// one JSON result line.  With --trace 0 the result holds the end-to-end
// metrics; with --trace 1 it holds the per-layer split from a traced
// run.  See perfbench/README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 38 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"spasm/internal/service/store"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: paper-suite, wide-uniform or service-mix")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 38, "how long to measure")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		selfcheck = flag.Bool("selfcheck", false, "run every workload at reduced size and check the metric set and the fingerprint check")
		regen     = flag.Bool("regen-fingerprints", false, "rewrite "+fingerprintFile+" from the current simulator")
	)
	flag.Parse()
	var err error
	switch {
	case *regen:
		err = regenerate()
	case *selfcheck:
		err = selfCheck()
	default:
		err = benchmark(*name, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchmark(name string, seed int64, seconds, trace int) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	res, err := measure(w, seed, time.Duration(seconds)*time.Second, trace == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runData is everything one run measured.
type runData struct {
	tally
	passes []pass
	traced []tracedPass
	// overheadS is each round's traced pass time minus its untraced
	// pass time over the same run list.
	overheadS []float64
	svc       svcStats
	store     storeTimes
	speed     speedo
}

func measure(w workload, seed int64, budget time.Duration, trace bool) (result, error) {
	fp, err := loadFingerprints(fingerprintData)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return result{}, err
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)

	rng := rand.New(rand.NewSource(seed))
	minRounds := w.minRounds
	if trace {
		// The traced run reports per-layer splits, not spreads: two
		// rounds give two paired overheads and two service rounds.
		minRounds = 2
	}
	var (
		d      runData
		rounds []float64 // seconds each finished round took
		start  = time.Now()
		last   = start
	)
	for round := 0; ; round++ {
		now := time.Now()
		if round > 0 {
			rounds = append(rounds, now.Sub(last).Seconds())
		}
		last = now
		// Stop before a round of typical length would overrun the
		// budget.  The median ignores the odd round a slow spell of
		// the host stretched.
		if round >= minRounds && now.Sub(start).Seconds()+median(rounds) > budget.Seconds() {
			break
		}
		specs := w.specs(rng)
		p := directPass(w, specs, fp, &d.speed)
		d.passes = append(d.passes, p)
		d.add(p.tally)
		if trace {
			tp := runTraced(w, specs, fp)
			d.traced = append(d.traced, tp)
			d.add(tp.tally)
			d.overheadS = append(d.overheadS, (tp.wall - p.wall).Seconds())
		}
		if err := serviceRound(w, scratch, specs, p, rng, trace, &d.speed, &d.svc); err != nil {
			return result{}, fmt.Errorf("service round: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds in %.1fs\n", len(d.passes), time.Since(start).Seconds())
	d.add(d.svc.tally)
	if trace {
		var records []store.Record
		for _, tp := range d.traced {
			records = append(records, tp.records...)
		}
		if d.store, err = timeStore(scratch, records); err != nil {
			return result{}, err
		}
	}

	res := result{Attempted: d.attempted, Failed: d.failed, Metrics: map[string]metric{}}
	res.Correct = d.failed == 0 && d.attempted > 0
	if trace {
		d.layerMetrics(res.Metrics)
	} else {
		d.endToEndMetrics(res.Metrics)
	}
	return res, nil
}

func (d *runData) endToEndMetrics(m map[string]metric) {
	wall := typicalPass(d.passes, func(r runCost) float64 { return r.speed * r.wall.Seconds() })
	m["wall_s"] = metric{wall, "s"}
	m["ns_per_ref"] = metric{ratio(1e9*wall, typicalPass(d.passes, func(r runCost) float64 { return float64(r.refs) })), "ns"}
	m["ns_per_msg"] = metric{ratio(1e9*wall, typicalPass(d.passes, func(r runCost) float64 { return float64(r.msgs) })), "ns"}
	m["alloc_mb"] = metric{medianOf(d.passes, func(p pass) float64 { return float64(p.alloc) / 1e6 }), "MB"}
	m["setup_s"] = metric{median(d.svc.setupS), "s"}
	m["ok_ratio"] = metric{ratio(float64(d.attempted-d.failed), float64(d.attempted)), "ratio"}
	for _, k := range []opKind{opCold, opHit, opStore} {
		m["svc_"+k.String()+"_p50_ms"] = metric{pooledQuantile(d.svc.lat[k], 0.50), "ms"}
		n := 0
		for _, xs := range d.svc.lat[k] {
			n += len(xs)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d %s samples in %d service rounds\n", n, k, len(d.svc.lat[k]))
	}
	m["svc_cold_p95_ms"] = metric{roundQuantile(d.svc.lat[opCold], 0.95), "ms"}
	m["svc_req_per_s"] = metric{ratio(float64(d.svc.attempted-d.svc.failed), d.svc.busy.Seconds()), "1/s"}
}

func (d *runData) layerMetrics(m map[string]metric) {
	tp := d.traced
	med := func(f func(tracedPass) float64) float64 { return medianOf(tp, f) }
	m["machine.self_s"] = metric{med(func(t tracedPass) float64 { return t.machineSelf.Seconds() }), "s"}
	m["machine.ns_per_call"] = metric{med(func(t tracedPass) float64 {
		return ratio(float64(t.machineSelf.Nanoseconds()), float64(t.calls))
	}), "ns"}
	m["machine.calls"] = metric{med(func(t tracedPass) float64 { return float64(t.calls) }), "count"}
	m["app.self_s"] = metric{med(func(t tracedPass) float64 { return t.appSelf.Seconds() }), "s"}
	// An app the workload does not run reads 0.
	for _, a := range append(paperApps, "uniform") {
		m["apps."+a+".wall_s"] = metric{med(func(t tracedPass) float64 { return t.appWall[a].Seconds() }), "s"}
	}
	m["apps.setup_s"] = metric{med(func(t tracedPass) float64 { return t.setup.Seconds() }), "s"}
	m["sim.events"] = metric{med(func(t tracedPass) float64 { return float64(t.events) }), "count"}
	m["sim.ns_per_event"] = metric{med(func(t tracedPass) float64 {
		return ratio(float64(t.kernelTime.Nanoseconds()), float64(t.kernelEvents))
	}), "ns"}
	m["coherence.hits"] = metric{med(func(t tracedPass) float64 { return float64(t.hits) }), "count"}
	m["coherence.misses"] = metric{med(func(t tracedPass) float64 { return float64(t.misses) }), "count"}
	m["coherence.hit_ratio"] = metric{med(func(t tracedPass) float64 {
		return ratio(float64(t.hits), float64(t.hits+t.misses))
	}), "ratio"}
	m["coherence.msgs_per_ref"] = metric{med(func(t tracedPass) float64 {
		return ratio(float64(t.msgs), float64(t.refs))
	}), "ratio"}
	m["net.messages"] = metric{med(func(t tracedPass) float64 { return float64(t.netMsgs) }), "count"}
	m["net.model_events"] = metric{med(func(t tracedPass) float64 { return float64(t.netModel) }), "count"}
	for _, tier := range replayTiers {
		m["net.ns_per_msg."+tier] = metric{med(func(t tracedPass) float64 {
			r := t.replay[tier]
			return ratio(float64(r.time.Nanoseconds()), float64(r.msgs))
		}), "ns"}
	}
	var encode []float64
	for _, t := range tp {
		encode = append(encode, t.encodeUS...)
	}
	m["report.encode_us"] = metric{median(encode), "us"}
	m["trace.wall_s"] = metric{med(func(t tracedPass) float64 { return t.wall.Seconds() }), "s"}
	m["trace.overhead_s"] = metric{median(d.overheadS), "s"}
	// The traced pass, store and report timings are as measured; the
	// service.* timings come from the service rounds and are at the
	// reference speed.  This is the host's speed during the run: the
	// one-ring reference loop's median time.
	m["host.ref_ms"] = metric{median(d.speed.probes), "ms"}

	s := d.svc
	m["service.run_ms"] = metric{median(s.coldRunMS), "ms"}
	m["service.overhead_ms"] = metric{median(s.overheadMS), "ms"}
	m["service.cache_hit_ratio"] = metric{ratio(s.scrape.cacheHits, s.scrape.cacheHits+s.scrape.cacheMisses), "ratio"}
	m["runpool.hit_ratio"] = metric{ratio(s.scrape.poolHits, s.scrape.poolHits+s.scrape.poolMisses), "ratio"}
	m["service.http_p50_ms"] = metric{1e3 * histogramQuantile(httpBounds, s.scrape.httpBuckets, 0.5), "ms"}
	// The tails of the sub-millisecond paths spread by more than any
	// end-to-end bound allows on a shared two-core host, so they are
	// reported here, without a bound.
	m["service.hit_p95_ms"] = metric{roundQuantile(s.lat[opHit], 0.95), "ms"}
	m["service.store_p95_ms"] = metric{roundQuantile(s.lat[opStore], 0.95), "ms"}
	m["store.put_ms"] = metric{median(d.store.putMS), "ms"}
	m["store.get_ms"] = metric{median(d.store.getMS), "ms"}
}
