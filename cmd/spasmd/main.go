// Command spasmd serves the simulator as a long-lived HTTP service: a
// job queue and worker pool execute runs through the spasm façade, and a
// content-addressed result cache makes repeated identical requests
// near-free (runs are deterministic functions of their spec).
//
// Usage:
//
//	spasmd                       # listen on :8347, GOMAXPROCS workers
//	spasmd -addr :9000 -workers 8 -cache 1024
//	spasmd -store /var/lib/spasmd  # durable result store: restarts stay warm
//
// Quick start:
//
//	curl -s localhost:8347/healthz
//	curl -s -X POST localhost:8347/v1/runs \
//	    -d '{"app":"fft","scale":"tiny","machine":"target","topology":"mesh","p":16}'
//	curl -s localhost:8347/v1/runs/<id>     # poll: pending -> running -> done
//	curl -s 'localhost:8347/v1/figures/7?scale=tiny&procs=2,4,8'
//	curl -s localhost:8347/metrics
//
// SIGINT/SIGTERM begin a graceful shutdown: the listener stops, and
// every accepted simulation drains before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spasm/internal/service"
	"spasm/internal/service/store"
)

// parseWeights parses -tenant-weights ("alice=4,bob=1") into the
// service's weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, errors.New("want tenant=weight pairs, e.g. alice=4,bob=1")
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, errors.New("tenant weight must be a positive integer")
		}
		out[name] = w
	}
	return out, nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8347", "listen address")
		workers     = flag.Int("workers", 0, "worker pool size: simulations run at once (0 = GOMAXPROCS); the per-run \"workers\" request field is accepted and ignored")
		cacheSize   = flag.Int("cache", 512, "result-cache capacity, in runs")
		queue       = flag.Int("queue", 1024, "pending-job queue depth")
		drain       = flag.Duration("drain", 10*time.Minute, "graceful-shutdown drain timeout")
		runTimeout  = flag.Duration("run-timeout", 0, "per-job wall-clock simulation deadline (0 = unbounded)")
		negCache    = flag.Int("neg-cache", 64, "failed-result cache capacity, in runs")
		negTTL      = flag.Duration("neg-ttl", 30*time.Second, "failed-result cache entry lifetime")
		storeDir    = flag.String("store", "", "durable result-store directory (empty = memory-only)")
		maxBody     = flag.Int64("max-body", 1<<20, "request-body size cap, in bytes")
		tenantRuns  = flag.Int("tenant-runs", 0, "per-tenant outstanding-run quota (0 = unlimited)")
		tenantBytes = flag.Int64("tenant-bytes", 0, "per-tenant queued-body-bytes quota (0 = unlimited)")
		weightsFlag = flag.String("tenant-weights", "", "per-tenant fair-share weights, e.g. alice=4,bob=1")
	)
	flag.Parse()

	weights, err := parseWeights(*weightsFlag)
	if err != nil {
		log.Fatalf("spasmd: -tenant-weights: %v", err)
	}
	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir); err != nil {
			log.Fatalf("spasmd: -store: %v", err)
		}
		log.Printf("spasmd: durable store at %s (%d runs warm)", st.Dir(), st.Stats().Entries)
	}

	svc := service.New(service.Config{
		Workers: *workers, CacheSize: *cacheSize, QueueDepth: *queue,
		RunTimeout: *runTimeout, NegativeCacheSize: *negCache, NegativeTTL: *negTTL,
		Store: st, MaxBodyBytes: *maxBody,
		TenantWeights: weights, TenantQuotaRuns: *tenantRuns, TenantQuotaBytes: *tenantBytes,
	})
	hs := &http.Server{Addr: *addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		w := *workers
		if w == 0 {
			w = runtime.GOMAXPROCS(0)
		}
		log.Printf("spasmd: listening on %s (%d workers, cache %d runs)", *addr, w, *cacheSize)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatalf("spasmd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("spasmd: shutting down, draining in-flight simulations...")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("spasmd: http shutdown: %v", err)
	}
	if err := svc.Shutdown(dctx); err != nil {
		log.Fatalf("spasmd: drain: %v", err)
	}
	log.Printf("spasmd: drained, bye")
}
