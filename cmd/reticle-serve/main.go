// Command reticle-serve is the long-running Reticle compile service: an
// HTTP front end over the concurrent batch compiler with a
// content-addressed artifact cache, so repeated and concurrent requests
// for the same kernel compile once and hit thereafter.
//
// Usage:
//
//	reticle-serve [-addr :8080] [-cache 512] [-jobs 0] [-timeout 30s] [-max-body 1048576]
//	              [-max-inflight 0] [-disk DIR] [-disk-bytes N]
//	              [-explore-variants 0] [-scrub-on-start] [-pprof ADDR]
//
// Endpoints (all JSON; see README "Compile service"):
//
//	POST /compile  {"ir": "def f(...) ...", "family": "ultrascale"}
//	POST /batch    {"kernels": [{"ir": "..."}, ...], "jobs": 4}
//	POST /explore  {"ir": "def f(...) ...", "max_variants": 16}
//	GET  /healthz
//	GET  /stats
//
// SIGINT/SIGTERM drain gracefully: listeners close, in-flight compiles
// finish (bounded by -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof: /debug/pprof on a side listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"reticle"
	"reticle/internal/faults"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheEntries := flag.Int("cache", 0, "artifact cache entries (0 = default)")
	jobs := flag.Int("jobs", 0, "default /batch worker bound (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request compile deadline (0 = none)")
	maxBody := flag.Int64("max-body", 1<<20, "request body size limit in bytes")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain bound for in-flight requests")
	maxInFlight := flag.Int("max-inflight", 0, "admitted concurrent compile/batch requests before shedding 429s (0 = unlimited)")
	diskDir := flag.String("disk", "", "persistent second level for the artifact store, a log of checksummed segment files; the hint and stage memos stay in memory (empty = disabled)")
	diskBytes := flag.Int64("disk-bytes", 0, "size bound in bytes for the whole -disk tree, every segment counted; the oldest segment is retired when full (0 = default)")
	exploreVariants := flag.Int("explore-variants", 0, "per-request /explore variant cap (0 = hard default)")
	scrubOnStart := flag.Bool("scrub-on-start", false, "verify the disk cache's checksums in the background on startup, quarantining corrupt entries")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof (/debug/pprof) on this side address (empty = disabled)")
	flag.Parse()
	if line := faults.EnvSummary(); line != "" {
		log.Printf("reticle-serve: %s", line)
	}

	srv, err := reticle.NewServer(reticle.ServerOptions{
		CacheEntries:       *cacheEntries,
		MaxBodyBytes:       *maxBody,
		DefaultTimeout:     *timeout,
		Jobs:               *jobs,
		MaxInFlight:        *maxInFlight,
		DiskDir:            *diskDir,
		DiskMaxBytes:       *diskBytes,
		MaxExploreVariants: *exploreVariants,
	})
	if err != nil {
		log.Fatal("reticle-serve: ", err)
	}

	if *pprofAddr != "" {
		// The service mux is private, so DefaultServeMux carries only the
		// pprof registrations; keep the profiler off the service address.
		go func() {
			log.Printf("reticle-serve: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("reticle-serve: pprof listener failed: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *scrubOnStart {
		go func() {
			rep, ok, err := srv.ScrubDisk(ctx, 0)
			switch {
			case !ok:
				log.Printf("reticle-serve: -scrub-on-start: no disk cache configured (-disk), nothing to scrub")
			case err != nil:
				log.Printf("reticle-serve: startup scrub interrupted: %v", err)
			default:
				log.Printf("reticle-serve: startup scrub: %d entries verified, %d corrupt quarantined (%d bytes in %s)",
					rep.Scanned, rep.Corrupt, rep.Bytes, rep.Elapsed)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	log.Printf("reticle-serve: listening on %s (families %v)", *addr, srv.Families())

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal("reticle-serve: ", err)
		}
	case <-ctx.Done():
		log.Printf("reticle-serve: signal received, draining (bound %s)", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			log.Fatal("reticle-serve: drain: ", err)
		}
		st := srv.CacheStats()
		fmt.Fprintf(os.Stderr,
			"reticle-serve: drained; cache %d/%d entries, %.0f%% hit rate, %d compiles\n",
			st.Entries, st.MaxEntries, 100*st.HitRate(), st.Computes)
	}
}
