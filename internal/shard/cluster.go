package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"h2tap/internal/costmodel"
	"h2tap/internal/gpu"
	"h2tap/internal/graph"
	"h2tap/internal/htap"
	"h2tap/internal/obs"
	"h2tap/internal/vfs"
	"h2tap/internal/wal"
)

// Ghost nodes: a cross-shard edge src@A → dst@B is stored entirely in A
// (the edge owner) against a local stand-in node for dst — a "ghost" whose
// label and gid property mark it as an alias of the remote global ID. Ghosts
// ride the normal WAL/recovery path like any node; the cluster rebuilds its
// ghost registry from the stores at open. Ghost slots are excluded from the
// stitched composite vertex set and their adjacency is translated back to
// the real global ID, so the composite is exactly the logical graph.
const (
	// GhostLabel marks ghost nodes in the per-shard stores.
	GhostLabel = "__h2tap_ghost__"
	// GhostGIDKey is the property carrying the remote global node ID.
	GhostGIDKey = "__h2tap_gid__"
)

// Options configures a cluster.
type Options struct {
	// Shards is the domain count (>= 1).
	Shards int
	// Replica selects the per-shard GPU-side structure.
	Replica htap.ReplicaKind
	// PersistDir, when non-empty, stores each shard under
	// PersistDir/shard-NNN plus the coordinator decision log at
	// PersistDir/coord.wal. Empty selects fully volatile domains.
	PersistDir string
	// SyncWAL fsyncs shard prepare/commit records and coordinator decisions.
	SyncWAL bool
	// GroupCommit tunes group commit on every shard WAL and the coordinator
	// decision log (zero values select the wal package defaults).
	GroupCommit wal.GroupCommit
	// FS overrides the filesystem (crash harness injection).
	FS vfs.FS
	// EnableCostModel calibrates once and clones the model per shard.
	EnableCostModel bool
	// PageRankIters and Damping parameterize PageRank (defaults 10, 0.85).
	PageRankIters int
	Damping       float64
	// Retry bounds per-shard replica-apply retries.
	Retry htap.RetryPolicy
	// DeltaHighWater is the per-shard delta-store backpressure mark.
	DeltaHighWater uint64
	// Workers is the per-shard propagation worker count.
	Workers int
}

// Cluster is a sharded H2TAP engine: N independent domains, a two-phase
// commit coordinator for cross-shard transactions, and a watermark stitcher
// for cross-shard analytics. Each domain is an independent failure domain
// (see HealthState); the cluster keeps serving on the healthy subset and
// RecoverShard reopens a Down shard online.
type Cluster struct {
	opts Options
	part Partitioner
	fsys vfs.FS

	domains []*Domain

	// lastGids is the newest stitch's vertex list, which the next stitch
	// reuses when its vertex set is unchanged (see buildComposite).
	lastGids atomic.Pointer[[]uint64]

	// Coordinator decision log (nil for volatile clusters). coordMu
	// serializes decision appends (read side) against whole-log reads and
	// reopen during shard/coordinator recovery (write side): a recovery
	// must never scan the log while an append is mid-flight, or a torn
	// in-progress record could be misread as interior corruption.
	coordMu   sync.RWMutex
	coord     *wal.Log
	coordPath string

	gtx atomic.Uint64 // distributed transaction IDs (resumed past recovery)
	seq atomic.Uint64 // node placement sequence

	// Heuristic aborts: cross-shard transactions aborted in memory because
	// their coordinator decision append ERRORED — without knowing whether the
	// record nevertheless became durable (a crash can land the bytes and
	// still surface an error). The coordinator log is the commit point, so
	// if the decision turns out to be durably COMMIT the in-memory abort was
	// wrong; RecoverCoordinator reconciles each entry against the reopened
	// log and quarantines the participants of contradicted aborts, forcing
	// the recoveries whose replay applies the transaction everywhere.
	heurMu     sync.Mutex
	heurAborts map[uint64][]int // gtx -> participant shard indexes

	// Ghost registry. Forward maps gid -> the latest usable local ghost per
	// shard; reverse maps every ghost slot ever allocated back to its gid
	// (entries are never removed — a slot once used as a ghost is excluded
	// from the composite vertex set forever, even after abort or delete).
	ghostMu  sync.RWMutex
	ghostFwd []map[uint64]graph.NodeID
	ghostRev []map[graph.NodeID]uint64

	reg txRegistry

	engineOnce sync.Once
	engineErr  error
	enginesUp  atomic.Bool
	model      *costmodel.Model // calibrated once; cloned per shard engine

	epoch atomic.Uint64 // successful stitches (the composite-view epoch)

	// afterUnpin, when set, runs in a stitched request between releasing
	// the shard replicas and running the kernel (tests).
	afterUnpin func()

	commits [NumCommitPaths]atomic.Uint64 // committed transactions per CommitPath

	closeOnce sync.Once
	closeErr  error
}

// Open builds or recovers a cluster. Recovery order matters: the coordinator
// decision log is read first so each shard's WAL replay can resolve in-doubt
// prepare records to the coordinator's durable decision (presumed abort
// without one); then the ghost registry and the gtx counter are rebuilt from
// the recovered stores and logs.
func Open(o Options) (*Cluster, error) {
	if o.Shards < 1 {
		o.Shards = 1
	}
	// The stitcher runs kernels directly (outside any one engine), so the
	// engine's PageRank defaults are normalized here once for both paths.
	if o.PageRankIters == 0 {
		o.PageRankIters = 10
	}
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	c := &Cluster{
		opts:     o,
		part:     NewPartitioner(o.Shards),
		ghostFwd: make([]map[uint64]graph.NodeID, o.Shards),
		ghostRev: make([]map[graph.NodeID]uint64, o.Shards),
	}
	for i := range c.ghostFwd {
		c.ghostFwd[i] = make(map[uint64]graph.NodeID)
		c.ghostRev[i] = make(map[graph.NodeID]uint64)
	}
	c.reg.init()

	if o.PersistDir == "" {
		for i := 0; i < o.Shards; i++ {
			c.domains = append(c.domains, openVolatile(i))
		}
		return c, nil
	}

	fsys := o.FS
	if fsys == nil {
		fsys = vfs.OS()
	}
	c.fsys = fsys
	if err := fsys.MkdirAll(o.PersistDir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: persist dir: %w", err)
	}
	c.coordPath = filepath.Join(o.PersistDir, "coord.wal")
	decisions, err := wal.ReadDecisions(fsys, c.coordPath)
	if err != nil {
		return nil, fmt.Errorf("shard: coordinator log: %w", err)
	}
	if decisions.TornTail {
		// A decision append interrupted mid-write: trim it. The transaction
		// it would have decided is presumed aborted everywhere.
		if err := wal.Trim(fsys, c.coordPath, decisions.ValidLen); err != nil {
			return nil, fmt.Errorf("shard: coordinator log trim: %w", err)
		}
	}
	decide := func(gtx uint64) bool {
		commit, ok := decisions.Decided(gtx)
		return ok && commit
	}

	maxGtx := decisions.MaxGtx
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()
	for i := 0; i < o.Shards; i++ {
		d, st, err := openPersistent(fsys, i, c.shardDir(i), o.SyncWAL, o.GroupCommit, decide)
		if err != nil {
			return nil, err
		}
		c.domains = append(c.domains, d)
		if st.MaxGtx > maxGtx {
			maxGtx = st.MaxGtx
		}
	}
	c.gtx.Store(maxGtx)
	if c.coord, err = wal.Open(c.coordPath, wal.Options{
		SyncEveryCommit: o.SyncWAL,
		GroupCommit:     o.GroupCommit,
		FS:              fsys,
	}); err != nil {
		return nil, fmt.Errorf("shard: coordinator log open: %w", err)
	}
	c.rebuildGhosts()
	ok = true
	return c, nil
}

// shardDir is shard i's persistence directory.
func (c *Cluster) shardDir(i int) string {
	return filepath.Join(c.opts.PersistDir, fmt.Sprintf("shard-%03d", i))
}

// rebuildGhosts rescans every shard's recovered store for ghost nodes and
// repopulates the registry. Deleted ghosts do not export and stay out — any
// replica built after recovery no longer contains their edges either.
func (c *Cluster) rebuildGhosts() {
	for i := range c.domains {
		c.rebuildGhostsFor(i)
	}
}

// rebuildGhostsFor rebuilds shard i's slice of the ghost registry from its
// current store (initial open and online shard recovery).
func (c *Cluster) rebuildGhostsFor(i int) {
	st := c.domains[i].Store()
	ts := st.Oracle().LastCommitted()
	nodes, _ := st.ExportAt(ts)
	fwd := make(map[uint64]graph.NodeID)
	rev := make(map[graph.NodeID]uint64)
	for _, n := range nodes {
		if n.Label != GhostLabel {
			continue
		}
		v, ok := n.Props[GhostGIDKey]
		if !ok {
			continue
		}
		gid := uint64(v.AsInt())
		fwd[gid] = n.ID
		rev[n.ID] = gid
	}
	c.ghostMu.Lock()
	c.ghostFwd[i] = fwd
	c.ghostRev[i] = rev
	c.ghostMu.Unlock()
}

// Partitioner exposes the cluster's ID mapping.
func (c *Cluster) Partitioner() Partitioner { return c.part }

// Shards reports the domain count.
func (c *Cluster) Shards() int { return len(c.domains) }

// Domain exposes shard i (tests, stats).
func (c *Cluster) Domain(i int) *Domain { return c.domains[i] }

// logCoordDecision appends one decision record under the coordinator read
// lock (excluded by recovery's whole-log scan). Nil coordinator (volatile
// cluster) is a no-op.
func (c *Cluster) logCoordDecision(gtx uint64, commit bool) error {
	return c.logCoordDecisionTraced(gtx, commit, nil)
}

// logCoordDecisionTraced is logCoordDecision carrying a request trace so the
// coordinator fsync (the distributed commit point) shows up in the request's
// span breakdown. rq may be nil.
func (c *Cluster) logCoordDecisionTraced(gtx uint64, commit bool, rq *obs.Req) error {
	c.coordMu.RLock()
	defer c.coordMu.RUnlock()
	if c.coord == nil {
		return nil
	}
	return c.coord.LogDecisionTraced(gtx, commit, rq)
}

// noteHeuristicAbort records that gtx is about to attempt its coordinator
// decision append and would be aborted in memory if the append errors with
// unknown durability. Registered BEFORE the append and dropped on success:
// were it registered only after the error, a concurrent RecoverCoordinator
// could reconcile in the gap and never see the entry, leaving a durably
// committed decision to resurrect on whichever shard replays next. See the
// heurAborts field doc.
func (c *Cluster) noteHeuristicAbort(gtx uint64, parts []int) {
	c.heurMu.Lock()
	if c.heurAborts == nil {
		c.heurAborts = make(map[uint64][]int)
	}
	c.heurAborts[gtx] = append([]int(nil), parts...)
	c.heurMu.Unlock()
}

// dropHeuristicAbort clears gtx's entry once its decision append succeeded
// (the transaction committed normally; there is nothing to reconcile).
func (c *Cluster) dropHeuristicAbort(gtx uint64) {
	c.heurMu.Lock()
	delete(c.heurAborts, gtx)
	c.heurMu.Unlock()
}

// reconcileHeuristicAborts checks every recorded heuristic abort against the
// coordinator log just reread: an entry whose decision is durably COMMIT was
// aborted wrongly — the participants' live stores are missing (some of) its
// writes, so they are quarantined and their next recovery replays the
// transaction back in. Any durable decision settles its entry; an entry
// with no decision yet is kept, not dropped — its owner's append may still
// be in flight (it could land durably on the log just reopened and then
// error), and only the owner removes a note whose append succeeded.
func (c *Cluster) reconcileHeuristicAborts(decisions *wal.DecisionSet) {
	c.heurMu.Lock()
	defer c.heurMu.Unlock()
	for gtx, parts := range c.heurAborts {
		commit, ok := decisions.Decided(gtx)
		if !ok {
			continue
		}
		if commit {
			for _, i := range parts {
				c.domains[i].quarantine(fmt.Errorf(
					"shard: cross-shard tx %d aborted in memory but durably committed at the coordinator", gtx))
			}
		}
		delete(c.heurAborts, gtx)
	}
}

// CoordErr reports the coordinator decision log's sticky failure, wrapped
// in ErrCoordinatorDown (nil while healthy or volatile). A latched
// coordinator fails only commits that wrote two or more shards; commits
// with one writer and analytics are unaffected.
func (c *Cluster) CoordErr() error {
	c.coordMu.RLock()
	defer c.coordMu.RUnlock()
	if c.coord == nil {
		return nil
	}
	if err := c.coord.Stats().Failed; err != nil {
		return fmt.Errorf("%w: %v", ErrCoordinatorDown, err)
	}
	return nil
}

// StartEngines builds every shard's analytics engine from its current
// committed snapshot: per-shard simulated GPU device and per-shard cost
// model (calibrated once, cloned per shard).
func (c *Cluster) StartEngines() error {
	c.engineOnce.Do(func() {
		if c.opts.EnableCostModel {
			m, err := htap.Calibrate(c.domains[0].Store())
			if err != nil {
				c.engineErr = fmt.Errorf("shard: cost model calibration: %w", err)
				return
			}
			c.model = m
		}
		for _, d := range c.domains {
			e, err := c.buildEngine(d.core.Load())
			if err != nil {
				c.engineErr = fmt.Errorf("shard %d: engine: %w", d.Index, err)
				return
			}
			d.engine.Store(e)
		}
		c.enginesUp.Store(true)
	})
	return c.engineErr
}

// buildEngine constructs one shard engine over a core (initial start and
// online recovery share this wiring; the core's delta store must already be
// registered as the store's capturer).
func (c *Cluster) buildEngine(core *domainCore) (*htap.Engine, error) {
	cfg := htap.Config{
		Replica:       c.opts.Replica,
		Device:        gpu.DefaultA100(),
		DeltaStore:    core.ds,
		CostModel:     c.model.Clone(),
		Workers:       c.opts.Workers,
		PageRankIters: c.opts.PageRankIters,
		Damping:       c.opts.Damping,
		Retry:         c.opts.Retry,
		HighWater:     c.opts.DeltaHighWater,
	}
	return htap.NewEngineWithExistingCapturer(core.store, cfg)
}

// PropagateAll runs one propagation cycle on every non-Down shard (starting
// engines if needed), continuing past per-shard failures. It returns every
// shard's report (nil for skipped shards) and the first error.
func (c *Cluster) PropagateAll() ([]*htap.PropagationReport, error) {
	if err := c.StartEngines(); err != nil {
		return nil, err
	}
	reports := make([]*htap.PropagationReport, len(c.domains))
	var firstErr error
	for i, d := range c.domains {
		if st, _ := d.Health(); st == ShardDown {
			continue
		}
		rep, err := d.Engine().Propagate()
		reports[i] = rep
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return reports, firstErr
}

// Checkpoint rotates every healthy shard's write-ahead log to a snapshot of
// its committed state. Each rotation runs under that shard's commit
// barrier; the coordinator log is never rotated (a rotated shard log holds
// no prepare records, so old decisions are never consulted again — they are
// only dead weight, bounded by cross-shard commit volume). A failed
// rotation quarantines that shard and the checkpoint continues on the rest;
// the first failure is returned so callers learn about the quarantine.
func (c *Cluster) Checkpoint() error {
	var firstErr error
	for _, d := range c.domains {
		if st, _ := d.Health(); st == ShardDown {
			continue
		}
		core := d.core.Load()
		if core.wal == nil {
			continue
		}
		if err := core.wal.Rotate(core.store); err != nil {
			d.quarantine(fmt.Errorf("checkpoint rotate: %w", err))
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: checkpoint: %w", d.Index, err)
			}
		}
	}
	return firstErr
}

// RecoverShard reopens a Down shard from its own durable state — its WAL,
// as compacted by the last checkpoint — while the rest of the cluster keeps
// serving, and flips it back to Healthy. The coordinator decision log is re-read (under
// the coordinator lock, so no concurrent decision append can be misread as
// corruption) to resolve any in-doubt prepare records the shard's WAL
// holds: decided-commit transactions are applied, everything else is
// presumed aborted. The shard's slice of the ghost registry is rebuilt from
// the recovered store and, if the cluster's engines are running, a fresh
// analytics engine is built so the shard rejoins the stitch barrier.
//
// The caller must have cleared the underlying fault first (freed disk
// space, remounted the device); recovery against a still-broken medium
// fails and leaves the shard Down for another attempt.
func (c *Cluster) RecoverShard(i int) error {
	if i < 0 || i >= len(c.domains) {
		return fmt.Errorf("shard: no shard %d", i)
	}
	d := c.domains[i]
	if err := d.beginRecovery(); err != nil {
		return err
	}
	ok := false
	defer func() { d.endRecovery(ok) }()
	if c.opts.PersistDir == "" {
		return fmt.Errorf("shard %d: volatile shards have no durable state to recover from", i)
	}

	// Detach the failed incarnation's handles. Best-effort: the medium that
	// latched the failure may refuse the close too; the reopen below decides
	// whether the shard is actually recoverable.
	if old := d.core.Load(); old != nil {
		old.close()
	}

	// Freeze decision appends while scanning the coordinator log.
	c.coordMu.Lock()
	decisions, err := wal.ReadDecisions(c.fsys, c.coordPath)
	c.coordMu.Unlock()
	if err != nil {
		return fmt.Errorf("shard %d: recover: coordinator log: %w", i, err)
	}
	decide := func(gtx uint64) bool {
		commit, ok := decisions.Decided(gtx)
		return ok && commit
	}

	core, st, err := openCore(c.fsys, i, c.shardDir(i), c.opts.SyncWAL, c.opts.GroupCommit, decide)
	if err != nil {
		return fmt.Errorf("shard %d: recover: %w", i, err)
	}

	// Resume the distributed-transaction counter past anything this shard's
	// replay (or the decision log) saw, without ever moving it backwards.
	maxGtx := st.MaxGtx
	if decisions.MaxGtx > maxGtx {
		maxGtx = decisions.MaxGtx
	}
	for {
		cur := c.gtx.Load()
		if cur >= maxGtx || c.gtx.CompareAndSwap(cur, maxGtx) {
			break
		}
	}

	// Publish the new incarnation. The shard stays Down (writes shed,
	// stitches exclude it) until endRecovery flips it Healthy, so a
	// half-wired incarnation is never served.
	d.adoptCore(core)
	if c.enginesUp.Load() {
		e, err := c.buildEngine(core)
		if err != nil {
			return fmt.Errorf("shard %d: recover: engine: %w", i, err)
		}
		d.engine.Store(e)
	}
	c.rebuildGhostsFor(i)
	ok = true
	return nil
}

// RecoverCoordinator reopens a latched coordinator decision log in place:
// the log is closed, its torn tail (if any) trimmed, and a fresh log opened
// at the same path. Cross-shard transactions whose decision append failed
// without durability stay undecided and resolve to presumed abort; ones
// whose decision turns out durably committed (a lost ack) are reconciled —
// their participants quarantine and re-recover so the commit point in the
// log wins everywhere. Cross-shard commits resume immediately; single-shard
// traffic never stopped.
func (c *Cluster) RecoverCoordinator() error {
	c.coordMu.Lock()
	defer c.coordMu.Unlock()
	if c.coord == nil {
		return nil
	}
	if c.coord.Stats().Failed == nil {
		return nil
	}
	c.coord.Close() // best-effort; the latch already rewound the tail
	decisions, err := wal.ReadDecisions(c.fsys, c.coordPath)
	if err != nil {
		return fmt.Errorf("shard: recover coordinator: %w", err)
	}
	if decisions.TornTail {
		if err := wal.Trim(c.fsys, c.coordPath, decisions.ValidLen); err != nil {
			return fmt.Errorf("shard: recover coordinator trim: %w", err)
		}
	}
	log, err := wal.Open(c.coordPath, wal.Options{
		SyncEveryCommit: c.opts.SyncWAL,
		GroupCommit:     c.opts.GroupCommit,
		FS:              c.fsys,
	})
	if err != nil {
		return fmt.Errorf("shard: recover coordinator open: %w", err)
	}
	c.coord = log
	// The durable log is back in hand: settle any in-memory aborts the
	// latched coordinator forced while its decision durability was unknown.
	// Contradicted ones quarantine their participants (recover those shards
	// next — see cfCheck / ShardStorm for the full repair sequence).
	c.reconcileHeuristicAborts(decisions)
	return nil
}

// Healths snapshots every shard's health state.
func (c *Cluster) Healths() []HealthState {
	out := make([]HealthState, len(c.domains))
	for i, d := range c.domains {
		out[i], _ = d.Health()
	}
	return out
}

// Epoch reports the number of consistent composite views stitched so far.
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// Commits counts the cluster transactions committed through path p.
func (c *Cluster) Commits(p CommitPath) uint64 { return c.commits[p].Load() }

// CrossTxLive reports the cross-shard transactions the stitcher is currently
// tracking (in-flight plus committed-but-not-yet-pruned).
func (c *Cluster) CrossTxLive() int { return c.reg.size() }

// GhostNodes counts the live ghost stand-in rows across all shards: registry
// entries whose local node is visible at that shard's last committed
// timestamp (the registry itself also holds dead slots, which are only
// excluded from composites, never reused).
func (c *Cluster) GhostNodes() int64 {
	c.ghostMu.RLock()
	defer c.ghostMu.RUnlock()
	var n int64
	for i, d := range c.domains {
		st := d.Store()
		ts := st.Oracle().LastCommitted()
		for id := range c.ghostRev[i] {
			if st.NodeExistsAt(id, ts) {
				n++
			}
		}
	}
	return n
}

// Watermarks reports each shard's replica freshness watermark (zero before
// engines start).
func (c *Cluster) Watermarks() []uint64 {
	w := make([]uint64, len(c.domains))
	for i, d := range c.domains {
		if e := d.Engine(); e != nil {
			w[i] = uint64(e.ReplicaTS())
		}
	}
	return w
}

// Close closes the coordinator log and every shard's durable handles.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		var firstErr error
		c.coordMu.Lock()
		if c.coord != nil {
			if err := c.coord.Close(); err != nil {
				firstErr = err
			}
		}
		c.coordMu.Unlock()
		for _, d := range c.domains {
			if err := d.closeHandles(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		c.closeErr = firstErr
	})
	return c.closeErr
}

// ErrClusterClosed reports use after Close.
var ErrClusterClosed = errors.New("shard: cluster closed")
