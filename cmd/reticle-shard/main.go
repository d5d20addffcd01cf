// Command reticle-shard is the distributed compile tier's router: it
// fronts N reticle-serve backends, consistent-hashing each kernel's text
// key (pipeline.TextKeyFor, the IR text under the family config's
// fingerprint; the router never parses) so the same text always lands on
// the same backend (keeping every backend's artifact LRU hot for its
// slice of the key space; alpha-renamed or re-spaced copies may land on
// different backends), health-checks the backends, re-hashes requests
// off dead peers, and optionally keeps a router-local persistent disk
// cache, keyed the same way, that serves repeat kernels without any
// network traffic.
//
// Usage:
//
//	reticle-shard -backends http://h1:8080,http://h2:8080 [-addr :8090]
//	              [-proxy-timeout 60s] [-health-interval 2s] [-disk DIR]
//	              [-disk-bytes N] [-hedge-after 300ms] [-scrub-on-start]
//	              [-pprof ADDR]
//
// The endpoint surface is reticle-serve's own — both run one edge, route
// table and handler set (POST /compile, POST /batch with buffered or
// NDJSON-streaming framing, POST /explore, POST /scrub, GET /healthz,
// GET /stats) — so clients point at the router unchanged. The backend
// list's ORDER is identity on the hash ring: keep it stable across
// router restarts and every backend keeps its keys. Request bodies are
// bounded at 1 MiB, the limit every backend runs, so the router never
// admits what a backend refuses. A /batch without "jobs" proxies at most
// 8 kernels at once.
//
// SIGINT/SIGTERM drain gracefully, like reticle-serve.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"reticle"
	"reticle/internal/server"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	backendsFlag := flag.String("backends", "", "comma-separated backend base URLs (required; order is ring identity)")
	proxyTimeout := flag.Duration("proxy-timeout", 60*time.Second, "per-attempt proxy deadline (0 = none)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "active backend probe period (0 = passive detection only)")
	diskDir := flag.String("disk", "", "router-local persistent artifact cache directory, a log of checksummed segment files (empty = disabled)")
	diskBytes := flag.Int64("disk-bytes", 0, "size bound in bytes for the whole -disk tree, every segment counted; the oldest segment is retired when full (0 = default)")
	hedgeAfter := flag.Duration("hedge-after", 0, "fire one speculative /compile attempt at the next ring backend after this delay (0 = no hedging)")
	scrubOnStart := flag.Bool("scrub-on-start", false, "verify the disk cache's checksums in the background on startup, quarantining corrupt entries")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof (/debug/pprof) on this side address (empty = disabled)")
	flag.Parse()

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
		ProxyTimeout:   *proxyTimeout,
		HealthInterval: *healthInterval,
		DiskDir:        *diskDir,
		DiskMaxBytes:   *diskBytes,
		HedgeAfter:     *hedgeAfter,
	})
	if err != nil {
		log.Fatal("reticle-shard: ", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("reticle-shard: routing over %d backends", len(backends))
	if err := server.Run(ctx, "reticle-shard", rt.Server, *addr, *pprofAddr, *scrubOnStart); err != nil {
		log.Fatal("reticle-shard: ", err)
	}
}
