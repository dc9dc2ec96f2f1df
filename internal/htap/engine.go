// Package htap wires the substrates into the paper's H2TAP system (Fig 1):
// transactions execute on the CPU main property graph, committing their
// topology changes into the DELTA_FE delta store; analytics execute on a
// GPU-resident structural replica (static CSR or dynamic hash-table graph)
// that update propagation keeps fresh (§4.2, §4.3). The engine implements
// the propagation transaction, the freshness check, the cost-model-driven
// merge-vs-rebuild decision (§6.4), and the optional persistent CSR copy
// for recovery (§6.5).
package htap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"h2tap/internal/analytics"
	"h2tap/internal/costmodel"
	"h2tap/internal/csr"
	"h2tap/internal/delta"
	"h2tap/internal/deltastore"
	"h2tap/internal/dyngraph"
	"h2tap/internal/gpu"
	"h2tap/internal/graph"
	"h2tap/internal/mvto"
	"h2tap/internal/obs"
	"h2tap/internal/sim"
)

// ReplicaKind selects the GPU-side data structure (§5.4).
type ReplicaKind int

// Replica kinds.
const (
	// StaticCSR keeps a CSR replica updated by delta merge + full transfer.
	StaticCSR ReplicaKind = iota
	// DynamicHash keeps a hash-table-per-vertex replica updated by
	// coalesced delta transfer + batched ingestion.
	DynamicHash
)

// String names the replica kind.
func (k ReplicaKind) String() string {
	if k == DynamicHash {
		return "dynamic"
	}
	return "static-csr"
}

// AnalyticsKind identifies a graph algorithm.
type AnalyticsKind string

// The supported analytics: the §6.2 Graphalytics selection (BFS, PageRank,
// SSSP) plus the remaining Graphalytics kernels (WCC, CDLP, LCC).
const (
	BFS      AnalyticsKind = "bfs"
	PageRank AnalyticsKind = "pagerank"
	SSSP     AnalyticsKind = "sssp"
	WCC      AnalyticsKind = "wcc"
	CDLP     AnalyticsKind = "cdlp"
	LCC      AnalyticsKind = "lcc"
)

// Config parameterizes an Engine.
type Config struct {
	Replica ReplicaKind
	// Device is the simulated GPU; nil selects gpu.DefaultA100.
	Device *gpu.Device
	// DeltaStore is the DELTA_FE instance; nil selects a fresh volatile
	// store. Pass a deltastore.NewPersistent store for the §6.5 variant.
	DeltaStore *deltastore.Store
	// CostModel, when set, installs the §6.4 threshold so overflowing
	// delta counts switch propagation to rebuild mode.
	CostModel *costmodel.Model
	// CostModels, when set, provides worker-count-aware coefficients: the
	// threshold is derived from the model calibrated at (or nearest to) the
	// engine's worker count, taking precedence over CostModel.
	CostModels *costmodel.WorkerModels
	// Workers is the propagation worker count used for the delta scan's
	// grouping pass, the CSR merge/rebuild, and the dynamic-structure
	// ingest. <= 0 selects GOMAXPROCS. With more than one worker the
	// static path also streams merged node-range segments to the device as
	// they finish, overlapping transfer with the merge.
	Workers int
	// PageRankIters and Damping parameterize PageRank (defaults 10, 0.85).
	PageRankIters int
	Damping       float64
	// Retry bounds the per-rung replica-apply attempts of a propagation
	// cycle and their backoff; zero fields select defaults (3 attempts,
	// 1ms base backoff doubling to 50ms).
	Retry RetryPolicy
	// HighWater, when > 0, installs the delta-store record high-water
	// mark: crossing it triggers an emergency propagation, and — if the
	// engine is Degraded so propagation cannot drain the store — puts the
	// engine into Backpressure so committers stop feeding it.
	HighWater uint64
	// Obs, when set, wires the engine into the observability layer: commit
	// and delta-append hooks, propagation phase histograms and counters,
	// cycle traces, cost-model drift, health/staleness/device gauges. Nil
	// keeps every hot path at a single nil check.
	Obs *obs.Observer
	// OnCycle, when set, receives every finished propagation report (after
	// health and staleness are filled in). Called under propMu — keep it
	// cheap; the bench uses it to emit per-cycle JSON lines.
	OnCycle func(*PropagationReport)
	// SlowCycle, when > 0, logs a single-line phase breakdown of every
	// propagation cycle whose critical-path total meets the threshold.
	SlowCycle time.Duration
	// SlowCycleLog overrides the slow-cycle log destination (nil selects
	// log.Printf).
	SlowCycleLog func(format string, args ...any)
}

// PropagationReport describes one update-propagation cycle (§4.2's second
// phase; the metric of Figs 5, 10 and §6.6).
type PropagationReport struct {
	Triggered bool
	// Rebuild reports that the cost model had switched the delta store off
	// and this cycle rebuilt the CSR instead of merging (§6.4).
	Rebuild bool
	TS      mvto.TS

	Records int // delta records consumed
	Deltas  int // combined per-node deltas
	Workers int // propagation worker count used this cycle

	ScanWall   time.Duration // delta store scan (§5.2)
	MergeWall  time.Duration // CSR merge (§5.4) or rebuild
	MergeStats csr.MergeStats

	// TransferSim is the transfer cost on the critical path. When
	// Overlapped, early merge shards streamed to the device while later
	// shards were still merging, so this is only the exposed tail;
	// TransferBusSim is the full bus busy time.
	TransferSim    sim.Duration
	TransferBusSim sim.Duration
	Overlapped     bool
	IngestSim      sim.Duration // dynamic-structure ingest kernel

	// Attempts counts replica-apply attempts across the cycle's escalation
	// rungs (1 for a clean cycle); RetryWall is the wall time the failed
	// attempts and backoff sleeps cost, included in Total.
	Attempts  int
	RetryWall time.Duration
	// FallbackRebuild reports that the delta apply exhausted its retries
	// and the cycle fell back to a full CSR rebuild.
	FallbackRebuild bool
	// Health and Staleness describe the engine after the cycle: a failed
	// cycle leaves the engine Degraded with a non-zero staleness bound.
	Health    Health
	Staleness Staleness

	// Predicted holds the §6.4 cost-model predictions for this cycle's
	// phases, when a model is installed — the drift tracker compares them
	// against the measured walls above.
	Predicted PredictedCosts

	Total sim.Latency // critical-path cost: scan+merge wall, transfer+ingest sim
}

// PredictedCosts are the cost-model predictions for one propagation cycle.
// Zero fields mean "no prediction" (no model installed, or the phase did
// not run).
type PredictedCosts struct {
	// FromModel reports that a §6.4 cost model was installed this cycle.
	FromModel bool
	// Scan is the scan model evaluated at the cycle's record count.
	Scan time.Duration
	// Merge is copy(graph size) + modify(record count) — the delta path.
	Merge time.Duration
	// Rebuild is the rebuild model at the rebuilt graph's edge count.
	Rebuild time.Duration
	// Transfer is the PCIe model at the shipped byte volume.
	Transfer sim.Duration
}

// Result is one analytics execution with its latency breakdown — the Table
// 1 decomposition (update propagation + analytics on GPU).
type Result struct {
	Kind        AnalyticsKind
	Propagation PropagationReport
	KernelSim   sim.Duration  // simulated GPU execution time
	HostWall    time.Duration // host time spent computing the real result

	// Degraded reports that the freshness propagation failed and the
	// kernel ran on the last-good replica instead; Staleness is the bound
	// on what the result may be missing.
	Degraded  bool
	Staleness Staleness

	// Exactly one of the following is set, matching Kind.
	Levels []int32   // BFS
	Dists  []float64 // SSSP
	Ranks  []float64 // PageRank
	Comp   []uint64  // WCC and CDLP (components / community labels)
	Coef   []float64 // LCC

	Work analytics.WorkStats
}

// TotalLatency is the modeled end-to-end latency: propagation critical path
// plus the device kernel.
func (r *Result) TotalLatency() time.Duration {
	return r.Propagation.Total.Total() + time.Duration(r.KernelSim)
}

// Engine is the H2TAP system.
type Engine struct {
	store *graph.Store
	ds    *deltastore.Store
	dev   *gpu.Device
	cfg   Config

	// replicaMu guards replica swaps and dynamic-replica ingest (the
	// dynamic graph has no lock of its own); kernels and AcquireReplica
	// holders read under it shared for the duration of a run (one replica
	// version at a time, §4.3).
	replicaMu sync.RWMutex
	staticRep *gpu.ResidentCSR
	hostCSR   *csr.CSR // the CPU copy the merge reads (§5.4)
	dynRep    *gpu.ResidentDyn
	replicaTS mvto.TS

	// propMu serializes propagation cycles (and scrubs).
	propMu sync.Mutex

	propagations int64
	rebuilds     int64

	// Fault-tolerance state (see health.go).
	healthMu         sync.RWMutex
	health           Health
	lastFault        error
	emergency        atomic.Bool // high-water emergency propagation in flight
	retries          int64       // guarded by propMu
	fallbackRebuilds int64       // guarded by propMu
	degradedCycles   int64       // guarded by propMu
}

// Errors.
var (
	// ErrUnknownAnalytics reports an unsupported analytics kind.
	ErrUnknownAnalytics = errors.New("htap: unknown analytics kind")
	// ErrBackpressure rejects a commit because the engine is Degraded and
	// the delta store has grown past its high-water mark. The facade
	// re-exports it (h2tap.ErrBackpressure); the message keeps the facade
	// prefix because that is where callers meet it.
	ErrBackpressure = errors.New("h2tap: engine degraded and delta store over high-water mark; commit rejected")
)

// NewEngine builds the engine over an existing main graph and initializes
// the replica from the current committed snapshot. The engine registers the
// delta store as a capturer; transactions must go through store.Begin as
// usual.
func NewEngine(store *graph.Store, cfg Config) (*Engine, error) {
	return newEngine(store, cfg, true)
}

// NewEngineWithExistingCapturer builds the engine over a store whose delta
// store (cfg.DeltaStore) is already registered as a capturer. Deltas
// captured before engine start are discarded: the initial replica build
// covers them, and re-propagating them could undo later deletions.
func NewEngineWithExistingCapturer(store *graph.Store, cfg Config) (*Engine, error) {
	if cfg.DeltaStore == nil {
		return nil, errors.New("htap: NewEngineWithExistingCapturer requires cfg.DeltaStore")
	}
	return newEngine(store, cfg, false)
}

func newEngine(store *graph.Store, cfg Config, register bool) (*Engine, error) {
	if cfg.Device == nil {
		cfg.Device = gpu.DefaultA100()
	}
	if cfg.DeltaStore == nil {
		cfg.DeltaStore = deltastore.NewVolatile()
	}
	if cfg.PageRankIters == 0 {
		cfg.PageRankIters = 10
	}
	if cfg.Damping == 0 {
		cfg.Damping = 0.85
	}
	e := &Engine{store: store, ds: cfg.DeltaStore, dev: cfg.Device, cfg: cfg}
	if register {
		store.AddCapturer(e.ds)
	}
	if cfg.HighWater > 0 {
		// Backstop against unbounded delta-store growth: crossing the
		// high-water mark kicks off an emergency propagation; if the device
		// is wedged and that fails, the engine degrades and Backpressure()
		// starts rejecting commits at the facade.
		e.ds.SetHighWater(cfg.HighWater)
		e.ds.OnHighWater(e.emergencyPropagate)
	}

	// The initial replica claims every transaction below its watermark.
	// With the capturer registered beforehand every commit has a delta, so
	// the cut is the stable timestamp: a transaction older than the last
	// commit may still be in flight, and publishes its delta later. A
	// capturer registered just now has missed every earlier commit, so that
	// snapshot has to take them all.
	ts := store.Oracle().LastCommitted()
	if !register {
		ts = store.Oracle().StableTS()
	}
	// Consume any deltas the initial snapshot already covers (pre-engine
	// captures and recovered records from a pre-crash session whose
	// replica state we are rebuilding from scratch here).
	e.ds.Scan(ts + 1)
	base := csr.BuildWorkers(store, ts, e.workers())
	if m := e.model(); m != nil {
		e.ds.SetThreshold(clampThreshold(m.Threshold(float64(base.NumEdges()))))
	}
	switch cfg.Replica {
	case StaticCSR:
		rep, _, err := gpu.UploadCSR(cfg.Device, base)
		if err != nil {
			return nil, fmt.Errorf("htap: initial replica upload: %w", err)
		}
		e.staticRep = rep
		e.hostCSR = base
	case DynamicHash:
		rep, _, err := gpu.UploadDyn(cfg.Device, dyngraph.FromCSR(base))
		if err != nil {
			return nil, fmt.Errorf("htap: initial replica upload: %w", err)
		}
		e.dynRep = rep
	default:
		return nil, fmt.Errorf("htap: unknown replica kind %d", cfg.Replica)
	}
	e.replicaTS = ts + 1 // covers all commits < ts+1, i.e. ≤ ts
	e.wireObs()
	return e, nil
}

// workers resolves the configured propagation worker count.
func (e *Engine) workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return csr.DefaultWorkers()
}

// Workers reports the resolved propagation worker count.
func (e *Engine) Workers() int { return e.workers() }

// model picks the cost model governing the merge-vs-rebuild threshold:
// the worker-count-aware set if present, the flat model otherwise.
func (e *Engine) model() *costmodel.Model {
	if m := e.cfg.CostModels.For(e.workers()); m != nil {
		return m
	}
	return e.cfg.CostModel
}

// Store exposes the main graph.
func (e *Engine) Store() *graph.Store { return e.store }

// DeltaStore exposes the delta store.
func (e *Engine) DeltaStore() *deltastore.Store { return e.ds }

// Device exposes the simulated GPU.
func (e *Engine) Device() *gpu.Device { return e.dev }

// ReplicaTS reports the freshness watermark: the replica reflects every
// transaction with timestamp below it.
func (e *Engine) ReplicaTS() mvto.TS {
	e.replicaMu.RLock()
	defer e.replicaMu.RUnlock()
	return e.replicaTS
}

// Propagations reports completed propagation cycles.
func (e *Engine) Propagations() int64 {
	e.propMu.Lock()
	defer e.propMu.Unlock()
	return e.propagations
}

// Rebuilds reports propagation cycles that used the rebuild path.
func (e *Engine) Rebuilds() int64 {
	e.propMu.Lock()
	defer e.propMu.Unlock()
	return e.rebuilds
}

// Fresh reports whether the replica already reflects every committed
// transaction — the §4.3 freshness check.
func (e *Engine) Fresh() bool {
	last := e.store.Oracle().LastCommitted()
	if e.ReplicaTS() > last {
		return true
	}
	if !e.ds.DeltaMode() {
		// Rebuild mode: commits are not being captured, so the replica is
		// stale until the next propagation rebuilds it (§6.4).
		return false
	}
	// The watermark lags but there may be nothing to apply (e.g. only
	// property updates committed, which don't alter topology).
	return !e.ds.PendingAt(last + 1)
}

// Propagate runs one update-propagation cycle unconditionally: scan the
// delta store within a propagation transaction and apply the batch to the
// replica (merge+replace for static, coalesce+ingest for dynamic). If the
// cost model flipped the delta store into rebuild mode, the CSR is rebuilt
// instead and delta mode re-enabled (§6.4).
//
// The cycle is failure-atomic and fault-tolerant end to end: the scan is
// staged, so delta consumption commits only after the replica swap
// succeeded — on any failure the store is as-if the cycle never ran and no
// committed update can be dropped. Device faults climb the escalation
// ladder: bounded, backoff-spaced retries of the replica apply; then a
// full rebuild fallback (itself retried); then the engine enters Degraded
// (see health.go) with the cycle's error returned and a staleness bound in
// the report.
func (e *Engine) Propagate() (*PropagationReport, error) {
	e.propMu.Lock()
	defer e.propMu.Unlock()

	tp := e.store.Oracle().Begin()
	defer tp.Commit()
	// Visibility bound: timestamps are allocated at Begin, so a newer
	// transaction can finish (and capture its delta) while an older one is
	// still running. Consuming up to tp would let a record slip in *behind*
	// the scan with a lower timestamp than deltas already applied to the
	// replica — applied next cycle, it would regress that node (e.g.
	// resurrect an edge a later delta deleted). Bounding by the oracle's
	// stable timestamp — below it every transaction has finished and
	// published its capture — keeps per-node replica application in
	// timestamp order. tp itself is unfinished, so bound <= tp.TS().
	bound := e.store.Oracle().StableTS() + 1
	rep := &PropagationReport{Triggered: true, TS: bound}

	tc := e.cfg.Obs.StartCycle("propagation")
	err := e.runCycle(bound, rep, tc)
	if err != nil {
		e.degradedCycles++
		e.setHealth(Degraded, err)
	} else {
		e.propagations++
		if rep.Rebuild {
			e.rebuilds++
		}
		e.setHealth(Healthy, nil)
	}
	rep.Health, _ = e.Health()
	rep.Staleness = e.Staleness()
	e.observeCycle(rep, tc, err)
	return rep, err
}

// runCycle executes one propagation cycle's work under propMu.
func (e *Engine) runCycle(bound mvto.TS, rep *PropagationReport, tc *obs.Cycle) error {
	workers := e.workers()
	rep.Workers = workers

	if !e.ds.DeltaMode() {
		rep.Rebuild = true
		return e.rebuildReplica(bound, rep, tc)
	}

	sp := tc.Span("scan")
	scanStart := time.Now()
	sc := e.ds.StageScanWorkers(bound, workers)
	rep.ScanWall = time.Since(scanStart)
	sp.Arg("records", itoa(sc.Batch.Records))
	sp.End()
	rep.Records = sc.Batch.Records
	rep.Deltas = len(sc.Batch.Deltas)
	rep.Total.AddWall(rep.ScanWall)
	if m := e.model(); m != nil {
		rep.Predicted.FromModel = true
		rep.Predicted.Scan = modelDur(m.Scan.Predict(float64(rep.Records)))
		if e.cfg.Replica == StaticCSR {
			// The copy/modify models describe the CSR merge.
			rep.Predicted.Merge = modelDur(m.Copy.Predict(float64(e.hostCSR.NumEdges())) +
				m.Modify.Predict(float64(rep.Records)))
		}
	}

	if err := e.applyBatch(sc.Batch, bound, rep, workers, tc); err != nil {
		// Rung 2: the delta apply exhausted its retries — fall back to a
		// full rebuild from the main graph, which covers every committed
		// update including the staged records.
		rep.FallbackRebuild = true
		e.fallbackRebuilds++
		if rerr := e.rebuildReplica(bound, rep, tc); rerr != nil {
			// Rung 3: nothing worked. Abandon the stage — every staged
			// record stays valid for the next cycle — and degrade.
			sc.Abandon()
			return rerr
		}
		// The rebuild re-enabled delta mode, clearing the store; Commit
		// detects the clear and no-ops. (Explicit for clarity.)
		sc.Commit()
		return nil
	}

	// The replica swap succeeded: commit the consumption. This is the
	// protocol's commit point — before it, the store could replay the
	// whole batch; after it, the replica provably contains the batch.
	sc.Commit()
	return nil
}

// applyBatch is rung 1 of the escalation ladder: apply one staged batch to
// the replica with bounded, backoff-spaced retries. The merge (static) is
// host-side and infallible and runs once; only the device-side swap
// retries. Replica state (hostCSR, dynamic structure, replicaTS) advances
// only inside a successful attempt, so a failed rung leaves the replica on
// its last-good version.
func (e *Engine) applyBatch(batch *delta.Batch, bound mvto.TS, rep *PropagationReport, workers int, tc *obs.Cycle) error {
	switch e.cfg.Replica {
	case StaticCSR:
		// With parallel workers, record when each merged node-range shard
		// finishes so the device transfer of early shards can be pipelined
		// against the merging of later ones (§5.4's transfer, overlapped).
		var segMu sync.Mutex
		var shards []csr.MergeShard
		var readys []time.Duration
		var onShard func(csr.MergeShard)
		mergeStart := time.Now()
		if workers > 1 {
			onShard = func(s csr.MergeShard) {
				ready := time.Since(mergeStart)
				segMu.Lock()
				shards = append(shards, s)
				readys = append(readys, ready)
				segMu.Unlock()
			}
		}
		sp := tc.Span("merge")
		merged, st := csr.MergeObserved(e.hostCSR, batch, workers, onShard)
		rep.MergeWall = time.Since(mergeStart)
		rep.MergeStats = st
		rep.Total.AddWall(rep.MergeWall)
		sp.End()
		rep.Predicted.Transfer = e.dev.PredictTransfer(merged.Bytes())

		err := e.retryLoop(rep, tc, "transfer", func(n int) error {
			e.replicaMu.Lock()
			defer e.replicaMu.Unlock()
			if workers > 1 && n == 1 {
				// The simulated bus ships shards in row order (the layout
				// order on the device); a shard can ship once it and —
				// transitively — nothing before it is still being written,
				// so its effective ready time is the max over itself and
				// its predecessors. Only the first attempt streams: on a
				// retry the merge has long finished and the ready times
				// are meaningless, so a plain replace is both simpler and
				// accurate.
				segs := make([]gpu.StreamSegment, len(shards))
				for i, s := range shards {
					segs[s.Index] = gpu.StreamSegment{Bytes: s.Bytes, Ready: readys[i]}
				}
				var latest time.Duration
				for i := range segs {
					if segs[i].Ready > latest {
						latest = segs[i].Ready
					}
					segs[i].Ready = latest
				}
				exposed, bus, err := e.staticRep.ReplaceStreamed(merged, segs, rep.MergeWall)
				if err != nil {
					return fmt.Errorf("htap: replica replace: %w", err)
				}
				rep.TransferSim = exposed
				rep.TransferBusSim = bus
				rep.Overlapped = true
			} else {
				t, err := e.staticRep.Replace(merged)
				if err != nil {
					return fmt.Errorf("htap: replica replace: %w", err)
				}
				rep.TransferSim = t
				rep.TransferBusSim = t
				rep.Overlapped = false
			}
			e.hostCSR = merged
			e.replicaTS = bound
			return nil
		})
		if err != nil {
			return err
		}
		rep.Total.AddSim(rep.TransferSim)
		return nil

	case DynamicHash:
		rep.Predicted.Transfer = e.dev.PredictTransfer(batch.TransferBytes())
		err := e.retryLoop(rep, tc, "ingest", func(int) error {
			e.replicaMu.Lock()
			defer e.replicaMu.Unlock()
			// IngestWorkers is failure-atomic (all fallible device ops
			// happen before the structure mutates), so retrying the same
			// batch cannot double-apply.
			t, kt, _, err := e.dynRep.IngestWorkers(batch, workers)
			if err != nil {
				return fmt.Errorf("htap: dynamic ingest: %w", err)
			}
			rep.TransferSim = t
			rep.TransferBusSim = t
			rep.IngestSim = kt
			e.replicaTS = bound
			return nil
		})
		if err != nil {
			return err
		}
		rep.Total.AddSim(rep.TransferSim + rep.IngestSim)
		return nil
	}
	return nil
}

// rebuildReplica is the §6.4 rebuild (and the fault ladder's rung-2
// fallback): build a fresh CSR from the main graph at the propagation
// snapshot, ship it with bounded retries, clear the delta store and
// re-enable delta mode.
func (e *Engine) rebuildReplica(tp mvto.TS, rep *PropagationReport, tc *obs.Cycle) error {
	sp := tc.Span("rebuild")
	start := time.Now()
	rebuilt := csr.BuildWorkers(e.store, tp-1, e.workers())
	var dynFresh *dyngraph.Graph
	if e.cfg.Replica == DynamicHash {
		dynFresh = dyngraph.FromCSR(rebuilt)
	}
	buildWall := time.Since(start)
	rep.MergeWall += buildWall
	rep.Total.AddWall(buildWall)
	sp.End()
	if m := e.model(); m != nil {
		rep.Predicted.FromModel = true
		rep.Predicted.Rebuild = modelDur(m.Rebuild.Predict(float64(rebuilt.NumEdges())))
		// The rebuild wall is measured here (the report's MergeWall can mix
		// in a failed merge on the fallback path), so its drift observation
		// is recorded here too.
		e.cfg.Obs.RecordDrift("rebuild", m.Rebuild.Predict(float64(rebuilt.NumEdges())), buildWall.Seconds())
	}
	if e.cfg.Replica == StaticCSR {
		rep.Predicted.Transfer = e.dev.PredictTransfer(rebuilt.Bytes())
	}

	err := e.retryLoop(rep, tc, "transfer", func(int) error {
		e.replicaMu.Lock()
		defer e.replicaMu.Unlock()
		switch e.cfg.Replica {
		case StaticCSR:
			t, err := e.staticRep.Replace(rebuilt)
			if err != nil {
				return fmt.Errorf("htap: rebuild replace: %w", err)
			}
			e.hostCSR = rebuilt
			rep.TransferSim = t
		case DynamicHash:
			old := e.dynRep
			fresh, t, err := gpu.UploadDyn(e.dev, dynFresh)
			if err != nil {
				return fmt.Errorf("htap: rebuild dynamic upload: %w", err)
			}
			old.Free()
			e.dynRep = fresh
			rep.TransferSim = t
		}
		e.replicaTS = tp
		return nil
	})
	if err != nil {
		return err
	}
	rep.TransferBusSim = rep.TransferSim
	rep.Total.AddSim(rep.TransferSim)

	e.ds.EnableDeltaMode()
	if m := e.model(); m != nil {
		e.ds.SetThreshold(clampThreshold(m.Threshold(float64(rebuilt.NumEdges()))))
	}
	return nil
}

// clampThreshold maps the cost model's "always rebuild" answer (0) to the
// smallest enforceable threshold: in the delta store 0 means "no
// threshold", so a literal 0 would never flip delta mode.
func clampThreshold(th uint64) uint64 {
	if th == 0 {
		return 1
	}
	return th
}

// RunAnalytics executes one analytics request with §4.3 semantics: if the
// replica is stale with respect to the request's arrival time, update
// propagation runs first; the kernel then executes on the (simulated)
// device. src is the source vertex for BFS and SSSP.
//
// Degraded mode: a failed propagation does not fail the request. The
// staged-consumption protocol guarantees the last-good replica is a
// consistent committed prefix, so the kernel runs on it and the result is
// marked Degraded with an explicit staleness bound instead.
func (e *Engine) RunAnalytics(kind AnalyticsKind, src uint64) (*Result, error) {
	res := &Result{Kind: kind}
	if !e.Fresh() {
		rep, err := e.Propagate()
		res.Propagation = *rep
		if err != nil {
			res.Degraded = true
			res.Staleness = rep.Staleness
		}
	}
	if err := e.runKernel(res, kind, src); err != nil {
		return nil, err
	}
	return res, nil
}

// runKernel executes the algorithm on the current replica under a shared
// lock (concurrent analytics on the same replica version, §4.3 case 2).
func (e *Engine) runKernel(res *Result, kind AnalyticsKind, src uint64) error {
	e.replicaMu.RLock()
	defer e.replicaMu.RUnlock()

	var view analytics.Graph
	switch e.cfg.Replica {
	case StaticCSR:
		view = analytics.CSRGraph{C: e.staticRep.CSR()}
	case DynamicHash:
		view = e.dynRep.Graph()
	}

	start := time.Now()
	out, err := analytics.Run(view, string(kind), src, e.cfg.PageRankIters, e.cfg.Damping)
	if err != nil {
		return fmt.Errorf("%w: %q", ErrUnknownAnalytics, kind)
	}
	res.Levels, res.Dists, res.Ranks, res.Comp, res.Coef = out.Levels, out.Dists, out.Ranks, out.Comp, out.Coef
	res.Work = out.Work
	class, ok := KernelClass(kind)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAnalytics, kind)
	}
	res.HostWall = time.Since(start)

	kt, err := e.dev.Launch(class, res.Work.Edges)
	if err != nil {
		return err
	}
	res.KernelSim = kt
	return nil
}

// KernelClass maps an analytics kind to its simulated-device kernel class.
func KernelClass(kind AnalyticsKind) (string, bool) {
	switch kind {
	case BFS:
		return sim.KernelBFS, true
	case PageRank:
		return sim.KernelPageRank, true
	case SSSP:
		return sim.KernelSSSP, true
	case WCC:
		return sim.KernelWCC, true
	case CDLP:
		return sim.KernelCDLP, true
	case LCC:
		return sim.KernelLCC, true
	}
	return "", false
}

// AcquireReplica pins the current replica version against swaps and returns
// its analytics view together with the freshness watermark it covers. The
// returned release function MUST be called when the caller is done with the
// view; propagation cycles block on the swap until every acquirer releases.
//
// The cross-shard stitcher holds several shards' replicas at once through
// this; like PrepareCommit, multi-shard acquisition must follow ascending
// shard order so reader wait chains terminate against concurrent
// propagation writers.
func (e *Engine) AcquireReplica() (analytics.Graph, mvto.TS, func()) {
	e.replicaMu.RLock()
	var view analytics.Graph
	switch e.cfg.Replica {
	case StaticCSR:
		view = analytics.CSRGraph{C: e.staticRep.CSR()}
	case DynamicHash:
		view = e.dynRep.Graph()
	}
	return view, e.replicaTS, e.replicaMu.RUnlock
}

// HostCSR exposes the CPU-side CSR copy (static replica only), for
// benchmarking the merge in isolation.
func (e *Engine) HostCSR() *csr.CSR {
	e.replicaMu.RLock()
	defer e.replicaMu.RUnlock()
	return e.hostCSR
}
