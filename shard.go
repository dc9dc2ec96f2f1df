package h2tap

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"h2tap/internal/analytics"
	"h2tap/internal/htap"
	"h2tap/internal/obs"
	"h2tap/internal/shard"
	"h2tap/internal/wal"
)

// Sharded mode. Options.Shards > 1 partitions the engine into N independent
// domains — each with its own MVTO timestamp oracle, delta store, cost model
// and simulated GPU replica — coordinated by a two-phase commit protocol for
// cross-shard transactions and a watermark stitcher for cluster-wide
// analytics (DESIGN.md §5h). Shards == 0 or 1 is exactly the single-domain
// engine: none of the sharded machinery is constructed and every code path
// is byte-identical to previous releases.

// ClusterTx is a read-write transaction on a sharded database. It speaks
// global IDs; operations route to each node's home shard and commit is
// atomic across every touched shard.
type ClusterTx = shard.Tx

// StitchResult is the detailed outcome of a cross-shard analytics request.
type StitchResult = shard.StitchResult

// Sharded-mode usage errors.
var (
	// ErrNotSharded reports a sharded-only call on a single-domain database.
	ErrNotSharded = errors.New("h2tap: database opened without Shards > 1")
	// ErrSharded reports a single-domain-only call on a sharded database.
	ErrSharded = errors.New("h2tap: not supported with Shards > 1")
)

// Per-shard fault-domain surface (DESIGN.md §5j). A shard whose durable
// medium latches a persist failure is quarantined (ShardDown): writes
// touching it shed with a ShardDownError carrying the shard index, stitched
// analytics serve the healthy subgraph, and RecoverShard reopens it online.
var (
	// ErrShardDown matches any shed write via errors.Is; errors.As a
	// *ShardDownError extracts the shard index and cause.
	ErrShardDown = shard.ErrShardDown
	// ErrCoordinatorDown reports commits that wrote two or more shards
	// refused because the 2PC coordinator log latched a failure (commits
	// with one writer serve).
	ErrCoordinatorDown = shard.ErrCoordinatorDown
)

// ShardDownError is the structured shed error for writes touching a
// quarantined shard.
type ShardDownError = shard.ShardDownError

// openSharded is the Open path for Shards > 1.
func openSharded(opts Options) (*DB, error) {
	if opts.Undirected {
		return nil, fmt.Errorf("%w: Undirected", ErrSharded)
	}
	c, err := shard.Open(shard.Options{
		Shards:          opts.Shards,
		Replica:         opts.Replica,
		PersistDir:      opts.PersistDir,
		SyncWAL:         opts.SyncWAL,
		GroupCommit:     opts.GroupCommit,
		FS:              opts.FS,
		EnableCostModel: opts.EnableCostModel,
		PageRankIters:   opts.PageRankIters,
		Damping:         opts.Damping,
		Retry:           opts.Retry,
		DeltaHighWater:  opts.DeltaHighWater,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{opts: opts, cluster: c}
	db.wireShardObs()
	return db, nil
}

// wireShardObs registers the per-shard fault-domain metric families on the
// shared observer registry: health as a gauge (0 healthy, 1 degraded,
// 2 down) and completed online recoveries as a counter, one series per
// shard, plus committed cluster transactions per commit path. Engine-level
// families are not wired per shard yet; the fault surface is what /healthz
// and alerting need first.
func (db *DB) wireShardObs() {
	o := db.opts.Observer
	if o == nil || db.cluster == nil {
		return
	}
	o.Reg.GaugeFunc("h2tap_wal_open_files",
		"Write-ahead log file handles currently open in this process.",
		func() float64 { return float64(wal.OpenFiles()) })
	for i := 0; i < db.cluster.Shards(); i++ {
		d := db.cluster.Domain(i)
		lbl := obs.L("shard", strconv.Itoa(i))
		o.Reg.GaugeFunc("h2tap_shard_health",
			"Shard fault-domain state: 0 healthy, 1 degraded, 2 down.",
			func() float64 { st, _ := d.Health(); return float64(st) }, lbl)
		o.Reg.CounterFunc("h2tap_shard_recoveries_total",
			"Completed online shard recoveries (RecoverShard).",
			func() float64 { return float64(d.Recoveries()) }, lbl)
	}
	c := db.cluster
	for p := shard.CommitPath(0); p < shard.NumCommitPaths; p++ {
		o.Reg.CounterFunc("h2tap_shard_commits_total",
			"Committed cluster transactions by commit path: single (one shard touched), one_writer (at most one shard written), two_phase (two or more written).",
			func() float64 { return float64(c.Commits(p)) }, obs.L("path", p.String()))
	}
}

// ShardHealth is one shard's entry in the per-shard health breakdown.
type ShardHealth struct {
	Shard      int    `json:"shard"`
	State      string `json:"state"` // healthy | degraded | down
	Cause      string `json:"cause,omitempty"`
	Recoveries uint64 `json:"recoveries,omitempty"`
}

// ShardHealths reports every shard's fault-domain state (nil on a
// single-domain database).
func (db *DB) ShardHealths() []ShardHealth {
	if db.cluster == nil {
		return nil
	}
	out := make([]ShardHealth, db.cluster.Shards())
	for i := range out {
		d := db.cluster.Domain(i)
		st, cause := d.Health()
		out[i] = ShardHealth{Shard: i, State: st.String(), Recoveries: d.Recoveries()}
		if cause != nil {
			out[i].Cause = cause.Error()
		}
	}
	return out
}

// RecoverShard reopens a Down shard from its own WAL and checkpoint while
// the rest of the cluster keeps serving (sharded databases only). The
// underlying fault must be cleared first; see shard.Cluster.RecoverShard.
func (db *DB) RecoverShard(i int) error {
	if db.cluster == nil {
		return ErrNotSharded
	}
	return db.cluster.RecoverShard(i)
}

// RecoverCoordinator reopens a latched 2PC coordinator decision log,
// restoring cross-shard commits (sharded databases only; no-op while the
// coordinator is healthy).
func (db *DB) RecoverCoordinator() error {
	if db.cluster == nil {
		return ErrNotSharded
	}
	return db.cluster.RecoverCoordinator()
}

// Cluster exposes the shard cluster (nil on a single-domain database).
func (db *DB) Cluster() *shard.Cluster { return db.cluster }

// BeginSharded starts a cluster transaction on a sharded database.
func (db *DB) BeginSharded() (*ClusterTx, error) {
	if db.cluster == nil {
		return nil, ErrNotSharded
	}
	return db.cluster.Begin(), nil
}

// RunAnalyticsStitched executes one cross-shard analytics request and
// returns the stitched result keyed by global ID (sharded databases only).
func (db *DB) RunAnalyticsStitched(kind AnalyticsKind, src uint64) (*StitchResult, error) {
	return db.RunAnalyticsStitchedTraced(kind, src, nil)
}

// RunAnalyticsStitchedTraced is RunAnalyticsStitched carrying a request
// trace: the stitch barrier and propagate-on-demand waits are recorded as
// spans on rq. rq may be nil.
func (db *DB) RunAnalyticsStitchedTraced(kind AnalyticsKind, src uint64, rq *obs.Req) (*StitchResult, error) {
	if db.cluster == nil {
		return nil, ErrNotSharded
	}
	return db.cluster.RunAnalyticsTraced(kind, src, rq)
}

// shardedRunAnalytics adapts a stitched result to the single-domain Result
// shape: slices indexed by global node ID, with neutral values (unreachable
// / +Inf / zero) in the slots the composite does not contain.
func (db *DB) shardedRunAnalytics(kind AnalyticsKind, src NodeID) (*Result, error) {
	st, err := db.cluster.RunAnalytics(kind, uint64(src))
	if err != nil {
		return nil, err
	}
	res := &Result{
		Kind:      st.Kind,
		KernelSim: st.KernelSim,
		HostWall:  st.HostWall,
		Work:      st.Work,
	}
	n := uint64(0)
	if len(st.GlobalIDs) > 0 {
		n = st.GlobalIDs[len(st.GlobalIDs)-1] + 1
	}
	switch {
	case st.Levels != nil:
		res.Levels = make([]int32, n)
		for i := range res.Levels {
			res.Levels[i] = analytics.Unreachable
		}
		for i, g := range st.GlobalIDs {
			res.Levels[g] = st.Levels[i]
		}
	case st.Dists != nil:
		res.Dists = make([]float64, n)
		for i := range res.Dists {
			res.Dists[i] = math.Inf(1)
		}
		for i, g := range st.GlobalIDs {
			res.Dists[g] = st.Dists[i]
		}
	case st.Ranks != nil:
		res.Ranks = make([]float64, n)
		for i, g := range st.GlobalIDs {
			res.Ranks[g] = st.Ranks[i]
		}
	case st.Comp != nil:
		res.Comp = make([]uint64, n)
		for i := range res.Comp {
			res.Comp[i] = uint64(i)
		}
		for i, g := range st.GlobalIDs {
			// Component labels are composite indices; translate back to the
			// global ID of the labeling vertex.
			res.Comp[g] = st.GlobalIDs[st.Comp[i]]
		}
	case st.Coef != nil:
		res.Coef = make([]float64, n)
		for i, g := range st.GlobalIDs {
			res.Coef[g] = st.Coef[i]
		}
	}
	return res, nil
}

// shardedPropagate runs one propagation cycle on every shard and folds the
// per-shard reports into one aggregate (records and walls sum; the simulated
// device times take the slowest shard, matching concurrent execution).
func (db *DB) shardedPropagate() (*PropagationReport, error) {
	reports, err := db.cluster.PropagateAll()
	agg := &PropagationReport{}
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		agg.Triggered = agg.Triggered || rep.Triggered
		agg.Rebuild = agg.Rebuild || rep.Rebuild
		if rep.TS > agg.TS {
			agg.TS = rep.TS
		}
		agg.Records += rep.Records
		agg.Deltas += rep.Deltas
		agg.ScanWall += rep.ScanWall
		agg.MergeWall += rep.MergeWall
		if rep.TransferSim > agg.TransferSim {
			agg.TransferSim = rep.TransferSim
		}
		if rep.TransferBusSim > agg.TransferBusSim {
			agg.TransferBusSim = rep.TransferBusSim
		}
		if rep.IngestSim > agg.IngestSim {
			agg.IngestSim = rep.IngestSim
		}
		agg.Attempts += rep.Attempts
		agg.RetryWall += rep.RetryWall
	}
	return agg, err
}

// shardedStats aggregates per-shard counters and fills the sharded-only
// fields. The per-shard stores count ghost stand-ins as live rows; here
// LiveNodes is kept logical (stand-ins subtracted and reported as
// GhostNodes), so the number means the same thing sharded and not.
func (db *DB) shardedStats() Stats {
	c := db.cluster
	st := Stats{
		Shards:          c.Shards(),
		ShardWatermarks: c.Watermarks(),
		StitchEpoch:     c.Epoch(),
		CrossTxLive:     c.CrossTxLive(),
		GhostNodes:      c.GhostNodes(),
	}
	for i := 0; i < c.Shards(); i++ {
		d := c.Domain(i)
		st.LiveNodes += d.Store().LiveNodes()
		st.LiveRels += d.Store().LiveRels()
		st.DeltaRecords += d.DS().Records()
		st.DeltaBytes += d.DS().ArrayBytes()
		st.DeltaMode = st.DeltaMode || d.DS().DeltaMode()
		if e := d.Engine(); e != nil {
			if ts := uint64(e.ReplicaTS()); ts > st.ReplicaTS {
				st.ReplicaTS = ts
			}
			st.Propagations += e.Propagations()
			st.Rebuilds += e.Rebuilds()
			st.DeviceMemUsed += e.Device().MemUsed()
			if t := e.Device().SimTime(); t > st.DeviceSimTime {
				st.DeviceSimTime = t
			}
			if h, _ := e.Health(); h == htap.Degraded {
				st.Health = htap.Degraded
			}
			st.Retries += e.Retries()
			st.FallbackRebuilds += e.FallbackRebuilds()
			st.DegradedCycles += e.DegradedCycles()
		}
	}
	st.LiveNodes -= st.GhostNodes
	return st
}

// shardedHealth reports Degraded if any shard is Down or its engine is
// degraded. The facade Health enum has two states; a quarantined shard maps
// to Degraded (the cluster still serves) with the structured ShardDownError
// as the cause — ShardHealths gives the full per-shard breakdown.
func (db *DB) shardedHealth() (Health, error) {
	for i := 0; i < db.cluster.Shards(); i++ {
		d := db.cluster.Domain(i)
		if st, cause := d.Health(); st == shard.ShardDown {
			return Degraded, &shard.ShardDownError{Shard: i, Cause: cause}
		}
		if e := d.Engine(); e != nil {
			if h, err := e.Health(); h == htap.Degraded {
				return h, fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	if err := db.cluster.CoordErr(); err != nil {
		return Degraded, err
	}
	return Healthy, nil
}
