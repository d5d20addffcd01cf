// Command reticle-serve is the long-running Reticle compile service: an
// HTTP front end over the concurrent batch compiler with a
// content-addressed artifact cache, so repeated and concurrent requests
// for the same kernel compile once and hit thereafter.
//
// Usage:
//
//	reticle-serve [-addr :8080] [-cache 512] [-timeout 30s] [-max-inflight 0]
//	              [-disk DIR] [-disk-bytes N] [-scrub-on-start] [-pprof ADDR]
//
// Endpoints (all JSON; see README "Compile service"):
//
//	POST /compile  {"ir": "def f(...) ...", "family": "ultrascale"}
//	POST /batch    {"kernels": [{"ir": "..."}, ...], "jobs": 4}
//	POST /explore  {"ir": "def f(...) ...", "max_variants": 16}
//	POST /scrub
//	GET  /healthz
//	GET  /stats
//
// Request bodies are bounded at 1 MiB, the limit reticle-shard shares. A
// /batch or /explore without "jobs" runs GOMAXPROCS workers.
//
// SIGINT/SIGTERM drain gracefully: listeners close, in-flight compiles
// finish (bounded at 30s), the -disk directory is released, then the
// process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"reticle"
	"reticle/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheEntries := flag.Int("cache", 0, "artifact cache entries (0 = default)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request compile deadline (0 = none)")
	maxInFlight := flag.Int("max-inflight", 0, "admitted concurrent compile/batch requests before shedding 429s (0 = unlimited)")
	diskDir := flag.String("disk", "", "persistent second level for the artifact store, a log of checksummed segment files; the hint and stage memos stay in memory (empty = disabled)")
	diskBytes := flag.Int64("disk-bytes", 0, "size bound in bytes for the whole -disk tree, every segment counted; the oldest segment is retired when full (0 = default)")
	scrubOnStart := flag.Bool("scrub-on-start", false, "verify the disk cache's checksums in the background on startup, quarantining corrupt entries")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof (/debug/pprof) on this side address (empty = disabled)")
	flag.Parse()

	srv, err := reticle.NewServer(reticle.ServerOptions{
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *timeout,
		MaxInFlight:    *maxInFlight,
		DiskDir:        *diskDir,
		DiskMaxBytes:   *diskBytes,
	})
	if err != nil {
		log.Fatal("reticle-serve: ", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := server.Run(ctx, "reticle-serve", srv, *addr, *pprofAddr, *scrubOnStart); err != nil {
		log.Fatal("reticle-serve: ", err)
	}
	st := srv.CacheStats()
	fmt.Fprintf(os.Stderr,
		"reticle-serve: drained; cache %d/%d entries, %.0f%% hit rate, %d compiles\n",
		st.Entries, st.MaxEntries, 100*st.HitRate(), st.Computes)
}
