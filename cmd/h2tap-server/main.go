// Command h2tap-server serves an H2TAP database over HTTP/JSON with the
// overload-robust admission-control ladder of internal/server: bounded
// in-flight requests, per-session rate limits, per-request deadlines,
// health-aware load shedding (429/503 + Retry-After), connection caps and
// slow-loris timeouts, and graceful drain on SIGTERM/SIGINT (stop
// accepting, drain in-flight within -drain-timeout, checkpoint, close).
//
// Usage:
//
//	h2tap-server -addr 127.0.0.1:8080 -persist /var/lib/h2tap -sync-wal
//	h2tap-server -addr 127.0.0.1:0 -max-inflight 64 -session-rate 100
//
// Endpoints (see README "Serving"):
//
//	POST /v1/tx/begin /v1/tx/apply /v1/tx/commit /v1/tx/abort
//	POST /v1/commit              one-shot transaction
//	POST /v1/analytics           {"kind":"pagerank","src":0,"wait":true}
//	GET  /v1/analytics/poll?ticket=ID
//	GET  /v1/stats  /healthz  (/metrics, /debug/* with -obs)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"h2tap"
	"h2tap/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:0 for ephemeral)")
		persist      = flag.String("persist", "", "persistence directory (empty = volatile)")
		syncWAL      = flag.Bool("sync-wal", false, "fsync the WAL on every commit batch")
		gcMaxBatch   = flag.Int("gc-max-batch", 0, "max commits per WAL group-commit batch (0 = default 64, 1 = serialized)")
		replica      = flag.String("replica", "static", "replica kind: static | dynamic")
		shards       = flag.Int("shards", 0, "shard the engine into N fault domains (0/1 = single-domain)")
		undirected   = flag.Bool("undirected", false, "undirected main graph")
		highWater    = flag.Uint64("high-water", 1_000_000, "delta-store high-water mark (0 = no backpressure)")
		obsFlag      = flag.Bool("obs", true, "serve /metrics, /debug/trace, /debug/pprof on the same port")
		maxConns     = flag.Int("max-conns", server.DefaultMaxConns, "max open connections")
		maxInflight  = flag.Int("max-inflight", server.DefaultMaxInFlight, "max concurrently executing requests")
		sessionRate  = flag.Float64("session-rate", server.DefaultSessionRate, "per-session sustained requests/s")
		sessionBurst = flag.Float64("session-burst", server.DefaultSessionBurst, "per-session burst size")
		deadline     = flag.Duration("deadline", server.DefaultDeadline, "default per-request deadline")
		maxDeadline  = flag.Duration("max-deadline", server.DefaultMaxDeadline, "cap on client-requested deadlines")
		drainTimeout = flag.Duration("drain-timeout", server.DefaultDrainTimeout, "graceful-drain bound on SIGTERM")
		maxBody      = flag.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes")
		txIdle       = flag.Duration("tx-idle-timeout", server.DefaultTxIdleTimeout, "evict interactive transactions idle this long")
		traceSample  = flag.Int("trace-sample", server.DefaultTraceSample, "trace 1 in N API requests end to end (1 = all)")
		traceSlow    = flag.Duration("trace-slow", server.DefaultTraceSlow, "retain traced requests slower than this in /debug/requests")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)

	opts := h2tap.Options{
		PersistDir:     *persist,
		SyncWAL:        *syncWAL,
		GroupCommit:    h2tap.GroupCommit{MaxBatch: *gcMaxBatch},
		Shards:         *shards,
		Undirected:     *undirected,
		DeltaHighWater: *highWater,
	}
	if *replica == "dynamic" {
		opts.Replica = h2tap.DynamicHash
	}
	var obsv *h2tap.Observer
	if *obsFlag {
		obsv = h2tap.NewObserver()
		opts.Observer = obsv
	}
	db, err := h2tap.Open(opts)
	if err != nil {
		fail(err)
	}

	cfg := server.Config{
		Addr:            *addr,
		MaxConns:        *maxConns,
		MaxInFlight:     *maxInflight,
		SessionRate:     *sessionRate,
		SessionBurst:    *sessionBurst,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		DrainTimeout:    *drainTimeout,
		MaxBodyBytes:    *maxBody,
		TxIdleTimeout:   *txIdle,
		TraceSample:     *traceSample,
		TraceSlow:       *traceSlow,
	}
	srv, err := server.New(db, cfg, obsv, logger)
	if err != nil {
		db.Close()
		fail(err)
	}
	if err := srv.Start(); err != nil {
		db.Close()
		fail(err)
	}
	// The smoke harness and loadgen parse this exact line off stderr.
	fmt.Fprintf(os.Stderr, "server: listening on %s\n", srv.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	logger.Printf("server: %v received, draining (bound %v)", sig, *drainTimeout)

	start := time.Now()
	ctx, cancel := srv.DrainContext()
	defer cancel()
	drainErr := srv.Drain(ctx)
	closeErr := db.Close()
	switch {
	case drainErr != nil:
		logger.Printf("server: drain incomplete after %v: %v", time.Since(start).Round(time.Millisecond), drainErr)
		os.Exit(1)
	case closeErr != nil:
		logger.Printf("server: close: %v", closeErr)
		os.Exit(1)
	default:
		logger.Printf("server: clean drain in %v", time.Since(start).Round(time.Millisecond))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "h2tap-server:", err)
	os.Exit(1)
}
