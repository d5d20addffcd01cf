// Command reticle-shard is the distributed compile tier's router: it
// fronts N reticle-serve backends, consistent-hashing each kernel's
// content-addressed cache key so the same kernel always lands on the
// same backend (keeping every backend's artifact LRU hot for its slice
// of the key space), health-checks the backends, re-hashes requests
// off dead peers, and optionally keeps a router-local persistent disk
// cache that serves repeat kernels without any network traffic.
//
// Usage:
//
//	reticle-shard -backends http://h1:8080,http://h2:8080 [-addr :8090]
//	              [-jobs 8] [-proxy-timeout 60s]
//	              [-health-interval 2s] [-disk DIR] [-disk-bytes N]
//	              [-max-body 1048576] [-hedge-after 300ms] [-scrub-on-start]
//	              [-pprof ADDR]
//
// The endpoint surface is identical to reticle-serve (POST /compile,
// POST /batch with buffered or NDJSON-streaming framing, GET /healthz,
// GET /stats), so clients point at the router unchanged. The backend
// list's ORDER is identity on the hash ring: keep it stable across
// router restarts and every backend keeps its keys.
//
// SIGINT/SIGTERM drain gracefully, like reticle-serve.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof: /debug/pprof on a side listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"reticle"
	"reticle/internal/faults"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	backendsFlag := flag.String("backends", "", "comma-separated backend base URLs (required; order is ring identity)")
	jobs := flag.Int("jobs", 0, "concurrent per-kernel proxy fan-out for /batch (0 = default)")
	proxyTimeout := flag.Duration("proxy-timeout", 60*time.Second, "per-attempt proxy deadline (0 = none)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "active backend probe period (0 = passive detection only)")
	diskDir := flag.String("disk", "", "router-local persistent artifact cache directory, a log of checksummed segment files (empty = disabled)")
	diskBytes := flag.Int64("disk-bytes", 0, "size bound in bytes for the whole -disk tree, every segment counted; the oldest segment is retired when full (0 = default)")
	maxBody := flag.Int64("max-body", 1<<20, "request body size limit in bytes")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain bound for in-flight requests")
	hedgeAfter := flag.Duration("hedge-after", 0, "fire one speculative /compile attempt at the next ring backend after this delay (0 = no hedging)")
	scrubOnStart := flag.Bool("scrub-on-start", false, "verify the disk cache's checksums in the background on startup, quarantining corrupt entries")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof (/debug/pprof) on this side address (empty = disabled)")
	flag.Parse()
	if line := faults.EnvSummary(); line != "" {
		log.Printf("reticle-shard: %s", line)
	}

	var backends []string
	for _, b := range strings.Split(*backendsFlag, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, strings.TrimSuffix(b, "/"))
		}
	}
	if len(backends) == 0 {
		log.Fatal("reticle-shard: -backends is required (comma-separated reticle-serve URLs)")
	}

	rt, err := reticle.NewShardRouter(reticle.ShardOptions{
		Backends:       backends,
		Jobs:           *jobs,
		ProxyTimeout:   *proxyTimeout,
		HealthInterval: *healthInterval,
		DiskDir:        *diskDir,
		DiskMaxBytes:   *diskBytes,
		MaxBodyBytes:   *maxBody,
		HedgeAfter:     *hedgeAfter,
	})
	if err != nil {
		log.Fatal("reticle-shard: ", err)
	}

	if *pprofAddr != "" {
		// The router mux is private, so DefaultServeMux carries only the
		// pprof registrations; keep the profiler off the proxy address.
		go func() {
			log.Printf("reticle-shard: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("reticle-shard: pprof listener failed: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *scrubOnStart {
		go func() {
			rep, ok, err := rt.ScrubDisk(ctx)
			switch {
			case !ok:
				log.Printf("reticle-shard: -scrub-on-start: no disk cache configured (-disk), nothing to scrub")
			case err != nil:
				log.Printf("reticle-shard: startup scrub interrupted: %v", err)
			default:
				log.Printf("reticle-shard: startup scrub: %d entries verified, %d corrupt quarantined (%d bytes in %s)",
					rep.Scanned, rep.Corrupt, rep.Bytes, rep.Elapsed)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- rt.ListenAndServe(*addr) }()
	log.Printf("reticle-shard: listening on %s, %d backends (families %v)",
		*addr, len(backends), rt.Families())

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal("reticle-shard: ", err)
		}
	case <-ctx.Done():
		log.Printf("reticle-shard: signal received, draining (bound %s)", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := rt.Shutdown(dctx); err != nil {
			log.Fatal("reticle-shard: drain: ", err)
		}
	}
}
