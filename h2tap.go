// Package h2tap is a heterogeneous hybrid transactional/analytical graph
// processing (H2TAP) engine: ACID transactions run on a CPU-resident main
// property graph under MVTO concurrency control, while graph analytics
// (BFS, PageRank, SSSP, WCC) run on a GPU-resident structural replica kept
// fresh through DELTA_FE — a fast and efficient append-only graph delta
// store with a CSR-like layout.
//
// It is a from-scratch reproduction of "Fast and Efficient Update Handling
// for Graph H2TAP" (Jibril, Al-Sayeh, Baumstark, Sattler — EDBT 2023). The
// GPU and persistent-memory hardware of the paper's testbed are simulated
// with calibrated cost models; see DESIGN.md for the substitution notes and
// EXPERIMENTS.md for the reproduced evaluation.
//
// Quick start:
//
//	db, err := h2tap.Open(h2tap.Options{})
//	...
//	tx := db.Begin()
//	alice, _ := tx.AddNode("Person", map[string]h2tap.Value{"name": h2tap.Str("alice")})
//	bob, _ := tx.AddNode("Person", map[string]h2tap.Value{"name": h2tap.Str("bob")})
//	tx.AddRel(alice, bob, "knows", 1.0)
//	tx.Commit()
//
//	res, _ := db.RunAnalytics(h2tap.PageRank, 0) // propagates deltas, runs on the replica
package h2tap

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"h2tap/internal/costmodel"
	"h2tap/internal/deltastore"
	"h2tap/internal/gpu"
	"h2tap/internal/graph"
	"h2tap/internal/htap"
	"h2tap/internal/mvto"
	"h2tap/internal/obs"
	"h2tap/internal/shard"
	"h2tap/internal/sim"
	"h2tap/internal/vfs"
	"h2tap/internal/wal"
)

// FS is the injectable filesystem surface the durability layers run on.
// Tests (notably internal/crashtest) substitute a fault-injecting one so
// the production persistence paths are what gets crashed.
type FS = vfs.FS

// Re-exported types: the facade keeps user code inside this package.
type (
	// Tx is a read-write graph transaction.
	Tx = graph.Tx
	// Value is a property value.
	Value = graph.Value
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// RelID identifies a relationship.
	RelID = graph.RelID
	// NodeSpec describes a node for bulk loading.
	NodeSpec = graph.NodeSpec
	// EdgeSpec describes a relationship for bulk loading.
	EdgeSpec = graph.EdgeSpec
	// Result is an analytics execution with its latency breakdown.
	Result = htap.Result
	// Ticket is a queued analytics request.
	Ticket = htap.Ticket
	// AnalyticsKind identifies a graph algorithm.
	AnalyticsKind = htap.AnalyticsKind
	// ReplicaKind selects the GPU-side replica structure.
	ReplicaKind = htap.ReplicaKind
	// PropagationReport describes one update-propagation cycle.
	PropagationReport = htap.PropagationReport
	// Health is the analytics engine's availability state.
	Health = htap.Health
	// Staleness bounds how far the replica lags the main graph.
	Staleness = htap.Staleness
	// RetryPolicy bounds replica-apply retries within a propagation cycle.
	RetryPolicy = htap.RetryPolicy
	// ScrubReport is the outcome of a replica integrity scrub.
	ScrubReport = htap.ScrubReport
	// Observer is the observability bundle: metrics registry, cycle
	// tracer, cost-model drift tracker. Create one with NewObserver, pass
	// it in Options.Observer, expose it with DB.ServeObs.
	Observer = obs.Observer
	// ObsServer is a running observability HTTP listener.
	ObsServer = obs.Server
	// GroupCommit tunes WAL group commit: how many commits may share one
	// write+fsync. How long a leader lingers for joiners is self-tuned.
	GroupCommit = wal.GroupCommit
)

// NewObserver returns an Observer with every metric family pre-registered.
func NewObserver() *Observer { return obs.New() }

// Health states.
const (
	// Healthy: the last propagation cycle succeeded.
	Healthy = htap.Healthy
	// Degraded: propagation is failing; analytics serve the last-good
	// replica with an explicit staleness bound.
	Degraded = htap.Degraded
)

// Property value constructors.
var (
	Int   = graph.Int
	Float = graph.Float
	Str   = graph.Str
	Bool  = graph.Bool
)

// Analytics kinds.
const (
	BFS      = htap.BFS
	PageRank = htap.PageRank
	SSSP     = htap.SSSP
	WCC      = htap.WCC
	CDLP     = htap.CDLP
	LCC      = htap.LCC
)

// Replica kinds.
const (
	// StaticCSR is the static replica path: delta merge into a CPU CSR
	// copy, full CSR transfer to the device (§5.4).
	StaticCSR = htap.StaticCSR
	// DynamicHash is the dynamic replica path: coalesced delta transfer,
	// batched ingestion into a hash-table-per-vertex structure (§5.4).
	DynamicHash = htap.DynamicHash
)

// Options configures Open.
type Options struct {
	// Shards partitions the engine into N independent MVTO/delta domains
	// with two-phase cross-shard commits and stitched cross-shard analytics
	// (DESIGN.md §5h). Zero or one selects the single-domain engine —
	// identical to previous releases. Sharded databases use BeginSharded
	// (global node IDs) instead of Begin, and do not support Undirected,
	// Observer, Submit, BulkLoad or Scrub.
	Shards int
	// Replica selects the GPU-side structure (default StaticCSR).
	Replica ReplicaKind
	// Undirected switches the main graph to undirected mode: relationships
	// have no orientation, appear in both endpoints' adjacency, and commit
	// two deltas each (§5.1).
	Undirected bool
	// PersistDir, when non-empty, makes the database durable: every commit
	// is appended to a write-ahead log under this directory, Checkpoint
	// compacts it, and Open replays it. The delta store stays in memory;
	// after a restart the first replica build starts from the replayed
	// graph.
	PersistDir string
	// PersistPoolSize is ignored; it is kept so existing callers compile.
	PersistPoolSize int64
	// EnableCostModel calibrates the §6.4 cost model when the analytics
	// engine starts and lets the delta store switch to rebuild mode past
	// the fitted threshold.
	EnableCostModel bool
	// PageRankIters and Damping parameterize PageRank (defaults 10, 0.85).
	PageRankIters int
	Damping       float64
	// Device overrides the simulated GPU (default: an A100-like device).
	Device *gpu.Device
	// SyncWAL fsyncs the write-ahead log after every commit (durability
	// over throughput); without it the OS decides when bytes hit stable
	// storage.
	SyncWAL bool
	// GroupCommit tunes the WAL's group commit (zero values select the
	// default: batches up to 64 commits). It applies
	// to every log the database writes — the main-graph WAL, per-shard
	// WALs, and the cross-shard coordinator decision log.
	GroupCommit GroupCommit
	// FS overrides the filesystem the WAL uses (nil selects the real one).
	// The crash-fault harness injects one here.
	FS FS
	// Retry bounds device-fault retries within a propagation cycle
	// (zero fields select the defaults: 3 attempts, 1ms backoff doubling
	// to 50ms).
	Retry RetryPolicy
	// DeltaHighWater, when non-zero, is the delta-store record count past
	// which an emergency propagation is kicked off; if the engine is
	// already Degraded (propagation failing), commits are rejected instead
	// so a wedged device cannot hide unbounded delta-store growth.
	DeltaHighWater uint64
	// Observer, when set, wires the database into the observability layer:
	// commit latency, WAL append/fsync counters, delta-store depth, every
	// propagation-cycle metric, health and staleness gauges, cycle traces,
	// cost-model drift. Serve it over HTTP with DB.ServeObs. Nil (the
	// default) keeps all hot paths at a single nil check.
	Observer *Observer
	// SlowCycleThreshold, when > 0, logs a single-line phase breakdown of
	// every propagation cycle whose critical-path total meets it.
	SlowCycleThreshold time.Duration
	// OnPropagation, when set, receives every finished propagation report
	// (the bench uses it to emit per-cycle JSON lines). Called on the
	// propagating goroutine — keep it cheap.
	OnPropagation func(*PropagationReport)
}

// DB is an open H2TAP database.
type DB struct {
	opts  Options
	store *graph.Store
	ds    *deltastore.Store

	// cluster is set instead of the fields above when Options.Shards > 1.
	cluster *shard.Cluster

	wal *wal.Log

	engineOnce sync.Once
	engine     *htap.Engine
	engineRef  atomic.Pointer[htap.Engine] // for commit-path guards racing StartEngine
	engineErr  error
	queue      *htap.Queue

	obsMu   sync.Mutex
	obsSrvs []*obs.Server

	closeOnce sync.Once
	closeErr  error
}

// ErrBackpressure rejects a commit because the analytics engine is Degraded
// and the delta store has grown past its high-water mark: propagation
// cannot drain the store, so admitting more updates would grow it without
// bound. Commits succeed again once a propagation cycle recovers the
// engine.
//
// It is a sentinel: Tx.Commit wraps it, so match with
// errors.Is(err, h2tap.ErrBackpressure). The network service layer
// (internal/server) maps it onto HTTP 503 + Retry-After — the system-wide
// rung of its shedding ladder, distinct from the per-client 429s of the
// rate limiter and admission semaphore (see DESIGN.md §5g).
var ErrBackpressure = htap.ErrBackpressure

// backpressureGuard is the committer-side half of the high-water backstop.
// It reads the engine through the atomic ref because commits can race
// StartEngine; before the engine exists there is nothing to throttle.
type backpressureGuard struct{ db *DB }

func (g backpressureGuard) LogCommit(mvto.TS, []graph.LoggedOp) error {
	if e := g.db.engineRef.Load(); e != nil && e.Backpressure() {
		return ErrBackpressure
	}
	return nil
}

// Open creates an empty database. Load data with Begin/Commit transactions
// or BulkLoad, then run analytics; the replica engine starts lazily on the
// first analytics call (or explicitly via StartEngine).
//
// With PersistDir set, Open is also the recovery path: the main graph is
// replayed from its write-ahead log (torn tails trimmed, interior
// corruption rejected with wal.ErrCorrupt) and appends resume at its end.
func Open(opts Options) (*DB, error) {
	if opts.Shards > 1 {
		return openSharded(opts)
	}
	db := &DB{opts: opts, ds: deltastore.NewVolatile()}
	if opts.Undirected {
		db.store = graph.NewUndirectedStore()
	} else {
		db.store = graph.NewStore()
	}
	if opts.PersistDir != "" {
		if err := db.recoverWAL(); err != nil {
			return nil, err
		}
	}
	// The backpressure guard runs before the WAL logger, so a rejected
	// commit never reaches the log.
	if opts.DeltaHighWater > 0 {
		db.store.AddOpLogger(backpressureGuard{db})
	}
	if db.wal != nil {
		db.store.AddOpLogger(db.wal)
		db.wireWALObs()
	}
	db.store.AddCapturer(db.ds)
	return db, nil
}

// recoverWAL replays the main graph from PersistDir's write-ahead log, if
// there is one, trimming any torn tail so appends resume at the last valid
// record boundary, and opens the log for appends.
func (db *DB) recoverWAL() error {
	fsys := db.opts.FS
	if fsys == nil {
		fsys = vfs.OS()
	}
	dir := db.opts.PersistDir
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("h2tap: persist dir: %w", err)
	}
	if err := shard.RemoveStale(fsys, dir); err != nil {
		return fmt.Errorf("h2tap: %w", err)
	}
	walPath := filepath.Join(dir, "graph.wal")
	if _, err := fsys.Stat(walPath); err == nil {
		st, err := wal.ReplayFS(fsys, walPath, db.store)
		if err != nil {
			return fmt.Errorf("h2tap: main graph recovery: %w", err)
		}
		if st.TornTail {
			if err := wal.Trim(fsys, walPath, st.ValidLen); err != nil {
				return fmt.Errorf("h2tap: main graph recovery: %w", err)
			}
		}
	}
	var err error
	db.wal, err = wal.Open(walPath, wal.Options{
		SyncEveryCommit: db.opts.SyncWAL,
		GroupCommit:     db.opts.GroupCommit,
		FS:              fsys,
	})
	return err
}

// wireWALObs registers the WAL's pull-based counters with the observer.
// The engine wires everything else when it starts; the WAL belongs to the
// facade, so its exposition is wired here.
func (db *DB) wireWALObs() {
	o := db.opts.Observer
	if o == nil || db.wal == nil {
		return
	}
	w := db.wal
	o.Reg.CounterFunc("h2tap_wal_appends_total",
		"Commit records successfully appended to the write-ahead log.",
		func() float64 { return float64(w.Stats().Appends) })
	o.Reg.CounterFunc("h2tap_wal_append_bytes_total",
		"Bytes written by successful WAL appends (header + payload).",
		func() float64 { return float64(w.Stats().AppendBytes) })
	o.Reg.CounterFunc("h2tap_wal_fsyncs_total",
		"Fsyncs issued on the WAL append path (SyncWAL mode).",
		func() float64 { return float64(w.Stats().Syncs) })
	o.Reg.CounterFunc("h2tap_wal_batches_total",
		"Group-commit batches flushed (one write, at most one fsync each).",
		func() float64 { return float64(w.Stats().Batches) })
	o.Reg.GaugeFunc("h2tap_wal_batch_max_records",
		"Largest number of commit records that shared one flush.",
		func() float64 { return float64(w.Stats().MaxBatch) })
	o.Reg.CounterFunc("h2tap_wal_flush_seconds_total",
		"Wall time spent inside WAL batch flushes (write + fsync).",
		func() float64 { return float64(w.Stats().FlushNanos) / 1e9 })
	o.Reg.CounterFunc("h2tap_wal_lingers_total",
		"Group-commit leaders that held their batch open for returning committers.",
		func() float64 { return float64(w.Stats().Lingers) })
	o.Reg.CounterFunc("h2tap_wal_linger_joined_total",
		"Commit records that joined a batch while its leader lingered.",
		func() float64 { return float64(w.Stats().LingerJoins) })
	o.Reg.CounterFunc("h2tap_wal_wait_seconds_total",
		"Committer wall time from group-commit enqueue to batch ack.",
		func() float64 { return float64(w.Stats().WaitNanosSum) / 1e9 })
	o.Reg.GaugeFunc("h2tap_wal_wait_min_seconds",
		"Fastest observed enqueue-to-ack wait of a WAL append.",
		func() float64 { return float64(w.Stats().WaitNanosMin) / 1e9 })
	o.Reg.GaugeFunc("h2tap_wal_wait_max_seconds",
		"Slowest observed enqueue-to-ack wait of a WAL append.",
		func() float64 { return float64(w.Stats().WaitNanosMax) / 1e9 })
	o.Reg.GaugeFunc("h2tap_wal_open_files",
		"Write-ahead log file handles currently open in this process.",
		func() float64 { return float64(wal.OpenFiles()) })
}

// ServeObs starts the observability HTTP listener (e.g. "127.0.0.1:0" for
// an ephemeral port) serving /metrics, /healthz, /debug/trace and
// /debug/pprof from Options.Observer. The listener is closed by Close.
func (db *DB) ServeObs(addr string) (*ObsServer, error) {
	if db.opts.Observer == nil {
		return nil, fmt.Errorf("h2tap: ServeObs requires Options.Observer")
	}
	srv, err := obs.Serve(addr, db.opts.Observer)
	if err != nil {
		return nil, err
	}
	db.obsMu.Lock()
	db.obsSrvs = append(db.obsSrvs, srv)
	db.obsMu.Unlock()
	return srv, nil
}

// Begin starts a read-write transaction on the main graph. On a sharded
// database it panics (it cannot report an error): use BeginSharded, whose
// transactions speak global IDs and commit atomically across shards.
func (db *DB) Begin() *Tx {
	if db.cluster != nil {
		panic("h2tap: Begin on a sharded database; use BeginSharded")
	}
	return db.store.Begin()
}

// BulkLoad loads an initial dataset, bypassing per-operation transaction
// overhead. It must run before concurrent transactions.
func (db *DB) BulkLoad(nodes []NodeSpec, edges []EdgeSpec) error {
	if db.cluster != nil {
		return fmt.Errorf("%w: BulkLoad (load through BeginSharded transactions)", ErrSharded)
	}
	_, err := db.store.BulkLoad(nodes, edges)
	return err
}

// StartEngine builds the initial replica from the current committed
// snapshot and starts the analytics machinery. It is called implicitly by
// the first RunAnalytics/Submit.
func (db *DB) StartEngine() error {
	if db.cluster != nil {
		return db.cluster.StartEngines()
	}
	db.engineOnce.Do(func() {
		cfg := htap.Config{
			Replica:       db.opts.Replica,
			Device:        db.opts.Device,
			PageRankIters: db.opts.PageRankIters,
			Damping:       db.opts.Damping,
			Retry:         db.opts.Retry,
			HighWater:     db.opts.DeltaHighWater,
			Obs:           db.opts.Observer,
			OnCycle:       db.opts.OnPropagation,
			SlowCycle:     db.opts.SlowCycleThreshold,
		}
		if db.opts.EnableCostModel {
			m, err := htap.Calibrate(db.store)
			if err != nil {
				db.engineErr = fmt.Errorf("h2tap: cost model calibration: %w", err)
				return
			}
			cfg.CostModel = m
		}
		// The engine registers its own delta store as a capturer; hand it
		// ours instead so deltas captured before engine start are not lost.
		cfg.DeltaStore = db.ds
		e, err := htap.NewEngineWithExistingCapturer(db.store, cfg)
		if err != nil {
			db.engineErr = err
			return
		}
		db.engine = e
		db.engineRef.Store(e)
		db.queue = htap.NewQueue(e)
	})
	return db.engineErr
}

// RunAnalytics executes one analytics request synchronously with §4.3
// freshness semantics (propagating pending deltas first if needed). src is
// the source vertex for BFS and SSSP.
func (db *DB) RunAnalytics(kind AnalyticsKind, src NodeID) (*Result, error) {
	if db.cluster != nil {
		return db.shardedRunAnalytics(kind, src)
	}
	if err := db.StartEngine(); err != nil {
		return nil, err
	}
	return db.engine.RunAnalytics(kind, src)
}

// Submit enqueues an analytics request on the §4.3 dispatch queue and
// returns a ticket to wait on. Fresh requests run concurrently; stale ones
// trigger pipelined update propagation.
func (db *DB) Submit(kind AnalyticsKind, src NodeID) (*Ticket, error) {
	if db.cluster != nil {
		return nil, fmt.Errorf("%w: Submit (use RunAnalytics or RunAnalyticsStitched)", ErrSharded)
	}
	if err := db.StartEngine(); err != nil {
		return nil, err
	}
	return db.queue.Submit(kind, src)
}

// Propagate forces one update-propagation cycle.
func (db *DB) Propagate() (*PropagationReport, error) {
	if db.cluster != nil {
		return db.shardedPropagate()
	}
	if err := db.StartEngine(); err != nil {
		return nil, err
	}
	return db.engine.Propagate()
}

// Stats is a point-in-time snapshot of system counters.
type Stats struct {
	LiveNodes, LiveRels int64
	DeltaRecords        uint64
	DeltaBytes          uint64 // the §6.3 footprint metric
	DeltaMode           bool
	ReplicaTS           uint64
	Propagations        int64
	Rebuilds            int64
	DeviceMemUsed       int64
	DeviceSimTime       sim.Duration
	Health              Health
	Retries             int64
	FallbackRebuilds    int64
	DegradedCycles      int64

	// Sharded-mode fields (zero on single-domain databases). LiveNodes stays
	// the logical node count; the ghost stand-in rows that shards hold for
	// cross-shard edges are reported separately as GhostNodes.
	Shards          int
	ShardWatermarks []uint64
	StitchEpoch     uint64
	CrossTxLive     int
	GhostNodes      int64
}

// Stats reports current counters.
func (db *DB) Stats() Stats {
	if db.cluster != nil {
		return db.shardedStats()
	}
	st := Stats{
		LiveNodes:    db.store.LiveNodes(),
		LiveRels:     db.store.LiveRels(),
		DeltaRecords: db.ds.Records(),
		DeltaBytes:   db.ds.ArrayBytes(),
		DeltaMode:    db.ds.DeltaMode(),
	}
	if db.engine != nil {
		st.ReplicaTS = uint64(db.engine.ReplicaTS())
		st.Propagations = db.engine.Propagations()
		st.Rebuilds = db.engine.Rebuilds()
		st.DeviceMemUsed = db.engine.Device().MemUsed()
		st.DeviceSimTime = db.engine.Device().SimTime()
		st.Health, _ = db.engine.Health()
		st.Retries = db.engine.Retries()
		st.FallbackRebuilds = db.engine.FallbackRebuilds()
		st.DegradedCycles = db.engine.DegradedCycles()
	}
	return st
}

// Health reports the analytics engine's availability state and, when
// Degraded, the fault that caused it. A latched WAL failure (sticky: every
// commit is refused until recovery) also reports Degraded. Before the
// engine starts the database is trivially Healthy bar the WAL latch.
func (db *DB) Health() (Health, error) {
	if db.cluster != nil {
		return db.shardedHealth()
	}
	if db.wal != nil {
		if err := db.wal.Stats().Failed; err != nil {
			return Degraded, fmt.Errorf("h2tap: wal failed: %w", err)
		}
	}
	if db.engine == nil {
		return Healthy, nil
	}
	return db.engine.Health()
}

// ReplicaStaleness reports the current replica staleness bound (zero
// before the engine starts).
func (db *DB) ReplicaStaleness() Staleness {
	if db.cluster != nil || db.engine == nil {
		return Staleness{}
	}
	return db.engine.Staleness()
}

// Scrub verifies the GPU replica against a main-graph snapshot at the
// replica's own freshness watermark and forces a full rebuild on
// divergence. It starts the engine if needed.
func (db *DB) Scrub() (*ScrubReport, error) {
	if db.cluster != nil {
		return nil, fmt.Errorf("%w: Scrub", ErrSharded)
	}
	if err := db.StartEngine(); err != nil {
		return nil, err
	}
	return db.engine.Scrub()
}

// LastCommitted reports the newest committed transaction timestamp. Shard
// timestamp domains are independent; on a sharded database this is the
// maximum across shards (an upper bound, not a global ordering point).
func (db *DB) LastCommitted() uint64 {
	if db.cluster != nil {
		var max uint64
		for i := 0; i < db.cluster.Shards(); i++ {
			if ts := uint64(db.cluster.Domain(i).Store().Oracle().LastCommitted()); ts > max {
				max = ts
			}
		}
		return max
	}
	return uint64(db.store.Oracle().LastCommitted())
}

// SnapshotTS returns a timestamp covering everything committed so far, for
// use with snapshot read helpers (single-domain databases only; shard
// timestamp domains are independent).
func (db *DB) SnapshotTS() mvto.TS { return db.store.Oracle().LastCommitted() }

// Store exposes the underlying graph store for advanced use (snapshot
// reads, degree queries). Nil on a sharded database — use
// Cluster().Domain(i).Store for per-shard access.
func (db *DB) Store() *graph.Store { return db.store }

// Engine exposes the underlying H2TAP engine after StartEngine.
func (db *DB) Engine() *htap.Engine { return db.engine }

// DeltaStore exposes the underlying DELTA_FE store.
func (db *DB) DeltaStore() *deltastore.Store { return db.ds }

// Checkpoint compacts the write-ahead log to a snapshot of the current
// committed state (a no-op without PersistDir). It is safe with fully
// concurrent commits: the store's commit barrier drains in-flight commits
// and blocks new ones for the duration of the swap, and the swap itself is
// crash-atomic (temp file + fsync + rename), so a crash at any point leaves
// either the old or the new log intact.
func (db *DB) Checkpoint() error {
	if db.cluster != nil {
		return db.cluster.Checkpoint()
	}
	if db.wal == nil {
		return nil
	}
	if err := db.wal.Rotate(db.store); err != nil {
		return fmt.Errorf("h2tap: checkpoint: %w", err)
	}
	return nil
}

// Close shuts the queue down and closes the write-ahead log. Close is
// idempotent: second and later calls return the first call's result without
// touching the already-closed handles.
func (db *DB) Close() error {
	if db.cluster != nil {
		return db.cluster.Close()
	}
	db.closeOnce.Do(func() {
		if db.queue != nil {
			db.queue.Close()
		}
		db.obsMu.Lock()
		for _, s := range db.obsSrvs {
			s.Close()
		}
		db.obsSrvs = nil
		db.obsMu.Unlock()
		if db.wal != nil {
			db.closeErr = db.wal.Close()
		}
	})
	return db.closeErr
}

// CostModel re-exports the §6.4 cost model type for advanced configuration.
type CostModel = costmodel.Model
