package shard

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"h2tap/internal/deltastore"
	"h2tap/internal/graph"
	"h2tap/internal/htap"
	"h2tap/internal/mvto"
	"h2tap/internal/obs"
	"h2tap/internal/vfs"
	"h2tap/internal/wal"
)

// domainCore bundles the handles that live and die together with one
// incarnation of a shard: the store, its delta store and its WAL. Online
// recovery builds a fresh core from the shard's durable state and swaps it
// in atomically; anything still holding the old core (an in-flight
// transaction, a pinned replica) keeps a consistent — if doomed — view, and
// the commit guard rejects publication against a superseded core.
type domainCore struct {
	store *graph.Store
	ds    *deltastore.Store
	wal   *wal.Log

	closeOnce sync.Once
	closeErr  error
}

// Domain is one shard: an independent MVTO timestamp domain with its own
// main-graph store, delta store, write-ahead log and — once the cluster
// starts its engines — its own cost model and simulated GPU replica. It
// mirrors the single-shard facade's wiring (h2tap.Open / StartEngine) at
// per-shard scope, and is an independent failure domain: a latched WAL
// failure quarantines this shard (ShardDown) without touching its siblings.
type Domain struct {
	Index int

	core   atomic.Pointer[domainCore]
	engine atomic.Pointer[htap.Engine]

	hmu        sync.Mutex
	down       bool
	cause      error // first persist failure that latched the quarantine
	recovering bool
	redown     error // quarantine requested while a recovery was running
	recoveries atomic.Uint64
}

// Store returns the shard's current main-graph store.
func (d *Domain) Store() *graph.Store { return d.core.Load().store }

// DS returns the shard's current delta store.
func (d *Domain) DS() *deltastore.Store { return d.core.Load().ds }

// Engine returns the shard's analytics engine (nil before StartEngines).
func (d *Domain) Engine() *htap.Engine { return d.engine.Load() }

// WAL exposes the shard's write-ahead log (nil for volatile domains).
func (d *Domain) WAL() *wal.Log { return d.core.Load().wal }

// Health reports the shard's state. Down dominates; a WAL latch discovered
// here quarantines lazily (the failure already happened on a persist path,
// Health just surfaces it before the next commit trips).
// Degraded reflects the engine's GPU-fault ladder and clears on its own.
func (d *Domain) Health() (HealthState, error) {
	if !d.isDown() {
		if core := d.core.Load(); core != nil && core.wal != nil {
			if st := core.wal.Stats(); st.Failed != nil {
				d.quarantine(fmt.Errorf("wal: %w", st.Failed))
			}
		}
	}
	d.hmu.Lock()
	defer d.hmu.Unlock()
	if d.down {
		return ShardDown, d.cause
	}
	if e := d.engine.Load(); e != nil {
		if h, err := e.Health(); h == htap.Degraded {
			return ShardDegraded, err
		}
	}
	return ShardHealthy, nil
}

// Recoveries counts completed RecoverShard cycles on this shard.
func (d *Domain) Recoveries() uint64 { return d.recoveries.Load() }

func (d *Domain) isDown() bool {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return d.down
}

// quarantine latches the shard Down with the given cause (first cause
// wins). Idempotent; safe from any goroutine.
//
// During an online recovery the shard is already Down, which would make a
// concurrent quarantine a silent no-op — but a quarantine raised in that
// window (a commit decision landing on the superseded core, see logDecision)
// means the core being installed may already be missing durable state, so it
// must not come up Healthy. The request is parked in redown and consumed by
// endRecovery: the recovery completes, the shard stays Down, and the next
// recovery replays with the now-visible decision and converges.
func (d *Domain) quarantine(cause error) {
	d.hmu.Lock()
	if d.recovering && d.redown == nil {
		d.redown = cause
	}
	if !d.down {
		d.down = true
		d.cause = cause
	}
	d.hmu.Unlock()
}

// downErr returns the structured shed error for this shard.
func (d *Domain) downErr() error {
	d.hmu.Lock()
	cause := d.cause
	d.hmu.Unlock()
	return &ShardDownError{Shard: d.Index, Cause: cause}
}

// beginRecovery transitions Down -> recovering, refusing if the shard is
// serving or another recovery is running.
func (d *Domain) beginRecovery() error {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	if !d.down {
		return fmt.Errorf("%w: shard %d", ErrShardNotDown, d.Index)
	}
	if d.recovering {
		return fmt.Errorf("%w: shard %d", ErrRecoveryInProgress, d.Index)
	}
	d.recovering = true
	return nil
}

// endRecovery completes (or abandons) a recovery. On success the shard
// flips back to Healthy — unless a quarantine arrived mid-recovery (see
// quarantine), in which case it stays Down under the new cause and needs
// another recovery pass.
func (d *Domain) endRecovery(ok bool) {
	d.hmu.Lock()
	d.recovering = false
	if ok {
		d.recoveries.Add(1)
		if d.redown != nil {
			d.cause = d.redown
		} else {
			d.down = false
			d.cause = nil
		}
	}
	d.redown = nil
	d.hmu.Unlock()
}

// domainGuard aborts commits once the shard is quarantined and applies the
// engine's backpressure signal — the per-shard equivalent of the facade's
// backpressureGuard. It is bound to one core incarnation:
// after an online recovery swaps the core, transactions still attached to
// the superseded store are rejected here rather than publishing into a
// detached incarnation.
type domainGuard struct {
	d    *Domain
	core *domainCore
}

func (g domainGuard) LogCommit(mvto.TS, []graph.LoggedOp) error {
	return g.d.guardErr(g.core)
}

func (d *Domain) guardErr(core *domainCore) error {
	if err := d.liveErr(core); err != nil {
		return err
	}
	if e := d.engine.Load(); e != nil && e.Backpressure() {
		return htap.ErrBackpressure
	}
	return nil
}

// liveErr is the part of the commit guard a read-only participant's vote
// runs too: the shard is not quarantined and still runs core. Backpressure
// is left out — a read appends nothing.
func (d *Domain) liveErr(core *domainCore) error {
	if d.isDown() || d.core.Load() != core {
		return d.downErr()
	}
	return nil
}

// walQuarantine routes commit records to the core's WAL and latches the
// shard Down when an append fails: the log itself already latched
// (ErrLogFailed), so the whole shard stops accepting writes with a
// structured cause instead of failing one commit at a time.
type walQuarantine struct {
	d    *Domain
	core *domainCore
}

func (w walQuarantine) LogCommit(ts mvto.TS, ops []graph.LoggedOp) error {
	return w.LogCommitTraced(ts, ops, nil)
}

// LogCommitTraced implements graph.TracedOpLogger: the request trace rides
// the append so a traced commit sees its enqueue/write/fsync/ack breakdown
// on the shard WAL exactly as on the single-node log.
func (w walQuarantine) LogCommitTraced(ts mvto.TS, ops []graph.LoggedOp, rq *obs.Req) error {
	err := w.core.wal.LogCommitTraced(ts, ops, rq)
	if err != nil {
		w.d.quarantine(fmt.Errorf("wal append: %w", err))
	}
	return err
}

// logPrepare appends a 2PC prepare record on this core, quarantining on
// failure (same reasoning as walQuarantine). A superseded or quarantined
// core is refused outright: its log may already be closed (or worse, a
// failed best-effort close may have left the handle writable), and a
// "durable" prepare that never reaches the current incarnation's log would
// let the coordinator commit a transaction recovery cannot reconstruct.
func (d *Domain) logPrepare(core *domainCore, gtx uint64, ts mvto.TS, ops []graph.LoggedOp, rq *obs.Req) error {
	if core.wal == nil {
		return nil
	}
	if d.isDown() || d.core.Load() != core {
		return d.downErr()
	}
	if err := core.wal.LogPrepareTraced(gtx, ts, ops, rq); err != nil {
		d.quarantine(fmt.Errorf("wal prepare append: %w", err))
		return err
	}
	return nil
}

// logDecision appends a local 2PC decision record on this core. A failed
// commit-decision append quarantines; the transaction outcome is already
// durable at the coordinator, so the error never reverses it.
//
// A commit decision arriving on a superseded core means the transaction
// outlived an online recovery of this shard: its prepare record and the
// coordinator's decision are durable, but the replacement core may have
// replayed before the decision landed and presumed abort. Quarantining
// forces another recovery, whose replay now finds the decision and applies
// the transaction — the live incarnation converges instead of silently
// missing an acked commit.
func (d *Domain) logDecision(core *domainCore, gtx uint64, commit bool, rq *obs.Req) error {
	if core.wal == nil {
		return nil
	}
	if d.core.Load() != core {
		err := fmt.Errorf("shard %d: decision for cross-shard tx %d outlived an online recovery", d.Index, gtx)
		if commit {
			d.quarantine(err)
		}
		return err
	}
	if err := core.wal.LogDecisionTraced(gtx, commit, rq); err != nil {
		if commit {
			d.quarantine(fmt.Errorf("wal decision append: %w", err))
		}
		return err
	}
	return nil
}

// openVolatile builds an in-memory domain.
func openVolatile(idx int) *Domain {
	d := &Domain{Index: idx}
	core := &domainCore{store: graph.NewStore(), ds: deltastore.NewVolatile()}
	core.store.AddCapturer(core.ds)
	d.core.Store(core)
	return d
}

// openCore builds (or recovers) one durable core under dir, replaying its
// write-ahead log with decide resolving any in-doubt 2PC prepares to the
// coordinator's durable decision. Both the initial open and online shard
// recovery run exactly this path. The delta store is volatile: the WAL is
// the shard's only durable state, and the first replica build after a
// restart starts from the replayed graph.
func openCore(fsys vfs.FS, idx int, dir string, syncWAL bool, gc wal.GroupCommit, decide func(uint64) bool) (_ *domainCore, _ wal.ReplayStats, err error) {
	core := &domainCore{store: graph.NewStore(), ds: deltastore.NewVolatile()}
	var st wal.ReplayStats
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, st, fmt.Errorf("shard %d: dir: %w", idx, err)
	}
	if err := RemoveStale(fsys, dir); err != nil {
		return nil, st, fmt.Errorf("shard %d: %w", idx, err)
	}
	walPath := filepath.Join(dir, "graph.wal")
	if _, serr := fsys.Stat(walPath); serr == nil {
		if st, err = wal.ReplayResolved(fsys, walPath, core.store, decide); err != nil {
			return nil, st, fmt.Errorf("shard %d: recovery: %w", idx, err)
		}
		if st.TornTail {
			if err = wal.Trim(fsys, walPath, st.ValidLen); err != nil {
				return nil, st, fmt.Errorf("shard %d: recovery trim: %w", idx, err)
			}
		}
	}
	if core.wal, err = wal.Open(walPath, wal.Options{SyncEveryCommit: syncWAL, GroupCommit: gc, FS: fsys}); err != nil {
		return nil, st, err
	}
	return core, st, nil
}

// RemoveStale deletes the files a durable directory may hold that no open
// reads: graph.wal.tmp from a checkpoint that crashed before its rename
// (the live log is intact, the rename is the commit point), and the
// delta.pool, csr.pool and pools.ok files that releases before the WAL-only
// durable mode wrote beside the log. Both h2tap.Open and every shard's
// openCore call it before replaying the log.
func RemoveStale(fsys vfs.FS, dir string) error {
	for _, name := range []string{"graph.wal.tmp", "delta.pool", "csr.pool", "pools.ok"} {
		path := filepath.Join(dir, name)
		if _, err := fsys.Stat(path); err != nil {
			continue
		}
		if err := fsys.Remove(path); err != nil {
			return fmt.Errorf("remove stale %s: %w", name, err)
		}
	}
	return nil
}

// openPersistent builds (or recovers) a durable domain under dir. It
// returns the replay stats so the cluster can resume its gtx counter past
// every ID this shard ever saw.
func openPersistent(fsys vfs.FS, idx int, dir string, syncWAL bool, gc wal.GroupCommit, decide func(uint64) bool) (*Domain, wal.ReplayStats, error) {
	core, st, err := openCore(fsys, idx, dir, syncWAL, gc, decide)
	if err != nil {
		return nil, st, err
	}
	d := &Domain{Index: idx}
	d.adoptCore(core)
	return d, st, nil
}

// adoptCore wires the guard/WAL/capture chain onto the core's store and
// publishes it as the domain's current incarnation.
func (d *Domain) adoptCore(core *domainCore) {
	core.store.AddOpLogger(domainGuard{d: d, core: core})
	if core.wal != nil {
		core.store.AddOpLogger(walQuarantine{d: d, core: core})
	}
	core.store.AddCapturer(core.ds)
	d.core.Store(core)
}

// close closes whatever durable handles the core holds. The handle fields
// are deliberately left non-nil: a transaction that pinned this core before
// an online recovery superseded it must see its late prepare/decision
// appends FAIL on the closed log (latching a quarantine that forces the
// replacement core to re-replay and converge) — a nil wal would make
// logPrepare/logDecision mistake the closed durable core for a volatile one
// and silently "succeed", acking commits whose records never reached disk.
func (c *domainCore) close() error {
	c.closeOnce.Do(func() {
		if c.wal != nil {
			c.closeErr = c.wal.Close()
		}
	})
	return c.closeErr
}

// closeHandles closes the current core's durable handles.
func (d *Domain) closeHandles() error {
	if core := d.core.Load(); core != nil {
		return core.close()
	}
	return nil
}
