// Command calibd is the fault-tolerant calibration daemon: it hosts many
// concurrent mGBA calibrator sessions behind an HTTP/JSON API.
//
//	calibd -addr :8080 -snapshots /var/lib/calibd
//
// A typical session (see README.md for the full transcript):
//
//	POST   /v1/sessions                    {"id":"s1","design":"toy"}
//	POST   /v1/sessions/s1/batch           {"ops":[{"op":"upsize","instance":42}]}
//	GET    /v1/sessions/s1/slacks
//	DELETE /v1/sessions/s1
//
// Requests honor an X-Deadline-Ms header: a calibration that overruns its
// deadline returns the degradation ladder's never-optimistic result with
// HTTP 200 instead of dropping the connection. Saturation is refused
// early with 429 + Retry-After. Each accepted batch appends one
// checksummed record to the session's journal before the answer; the
// journal is folded into a full checkpoint once it reaches the
// checkpoint's size. On SIGTERM/SIGINT the daemon drains in-flight
// requests, checkpoints every session, and exits; a restarted daemon,
// killed or drained, replays each session's journal over its checkpoint
// and resumes it bit-identically.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mgba/internal/core"
	"mgba/internal/obs"
	"mgba/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port, printed to stdout)")
	snapshots := flag.String("snapshots", "", "directory for crash-safe session persistence: a checkpoint <id>.ckpt and a journal <id>.journal per session (empty: sessions are memory-only)")
	maxSessions := flag.Int("max-sessions", 0, "resident session cap; least recently used sessions are snapshotted and evicted beyond it (0: default)")
	maxInflight := flag.Int("max-inflight", 0, "concurrently admitted requests before 429 (0: default)")
	maxQueue := flag.Int("max-queue", 0, "queued requests per session before 429 (0: default)")
	idle := flag.Duration("idle-timeout", 0, "evict sessions untouched this long (0: default)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline when no X-Deadline-Ms is sent (0: default)")
	snapEvery := flag.Duration("snapshot-every", 0, "write-behind cadence: append one journal record per changed session this often (0: append synchronously after every batch, before its answer)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
	par := flag.Int("par", 0, "worker count for timing and solver kernels (0: GOMAXPROCS)")
	viewpair := flag.String("viewpair", "", "default view pair for new sessions: gba-pba (default) or preroute; a session's view_pair field overrides")
	corners := flag.String("corners", "", "default corner set for new sessions: name[:derate-scale[:uncertainty-ps]],... (empty: single-corner); a session's corners field overrides")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/pprof and /debug/summary on this host:port")
	flag.Parse()

	if _, err := core.LookupViewPair(*viewpair); err != nil {
		fail(err)
	}
	cornerSet, err := core.ParseCorners(*corners)
	if err != nil {
		fail(err)
	}

	cfg := serve.DefaultConfig()
	cfg.SnapshotDir = *snapshots
	cfg.Core.ViewPair = *viewpair
	cfg.Core.Corners = cornerSet
	if *maxSessions > 0 {
		cfg.MaxSessions = *maxSessions
	}
	if *maxInflight > 0 {
		cfg.MaxInFlight = *maxInflight
	}
	if *maxQueue > 0 {
		cfg.MaxQueue = *maxQueue
	}
	if *idle > 0 {
		cfg.IdleTimeout = *idle
	}
	if *deadline > 0 {
		cfg.DefaultDeadline = *deadline
	}
	cfg.SnapshotEvery = *snapEvery
	cfg.Parallelism = *par

	if *debugAddr != "" {
		dbg, err := obs.Serve(*debugAddr)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "calibd: debug server on http://%s\n", dbg.Addr())
		defer dbg.Close()
	}

	sv, err := serve.New(cfg)
	if err != nil {
		fail(err)
	}
	if err := sv.Listen(*addr); err != nil {
		fail(err)
	}
	// The bound address goes to stdout (and is flushed) so scripts using
	// port 0 can read the real port.
	fmt.Printf("calibd: listening on http://%s\n", sv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	s := <-sig
	fmt.Fprintf(os.Stderr, "calibd: %v: draining and snapshotting\n", s)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := sv.Shutdown(ctx); err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, "calibd: shutdown complete")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "calibd:", err)
	os.Exit(1)
}
