package server

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // Run's pprof side listener serves DefaultServeMux
	"time"

	"reticle/internal/faults"
)

// drainBound is how long Run's shutdown waits for in-flight requests.
const drainBound = 30 * time.Second

// Run is the lifecycle of a tier's process, the same for reticle-serve and
// reticle-shard (which passes its router's edge, the Server a
// shard.Router embeds): bind addr, serve t until ctx is done, then drain — the
// listener closes, in-flight requests finish within drainBound, and the
// disk tier closes. Around it, it logs the armed fault points, serves
// net/http/pprof on the side address pprof when that is set (the tier's
// own mux is private, so DefaultServeMux carries only the profiler), and
// with scrub verifies the disk tier in the background. Log lines start
// with name. It returns nil once drained, or the error that stopped it.
func Run(ctx context.Context, name string, t *Server, addr, pprof string, scrub bool) error {
	if line := faults.EnvSummary(); line != "" {
		log.Printf("%s: %s", name, line)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if pprof != "" {
		go func() {
			log.Printf("%s: pprof listening on %s", name, pprof)
			if err := http.ListenAndServe(pprof, nil); err != nil {
				log.Printf("%s: pprof listener failed: %v", name, err)
			}
		}()
	}
	if scrub {
		go func() {
			rep, ok, err := t.ScrubDisk(ctx)
			switch {
			case !ok:
				log.Printf("%s: -scrub-on-start: no disk cache configured (-disk), nothing to scrub", name)
			case err != nil:
				log.Printf("%s: startup scrub interrupted: %v", name, err)
			default:
				log.Printf("%s: startup scrub: %d entries verified, %d corrupt quarantined (%d bytes in %s)",
					name, rep.Scanned, rep.Corrupt, rep.Bytes, rep.Elapsed)
			}
		}()
	}

	served := make(chan error, 1)
	go func() { served <- t.Serve(l) }()
	log.Printf("%s: listening on %s (families %v)", name, l.Addr(), t.Families())
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	log.Printf("%s: shutting down, draining (bound %s)", name, drainBound)
	dctx, cancel := context.WithTimeout(context.Background(), drainBound)
	defer cancel()
	if err := t.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	<-served // http.ErrServerClosed, once the listener is gone
	return nil
}
