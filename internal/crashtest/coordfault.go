package crashtest

import (
	"errors"
	"fmt"
	"path/filepath"

	"h2tap"
	"h2tap/internal/faultinject"
	"h2tap/internal/shard"
	"h2tap/internal/vfs"
)

// Coordinator fault enumeration: fault injection scoped to the 2PC
// coordinator's decision log (coord.wal), hitting every decision append of a
// cross-shard-heavy script in transient and crash flavors. The decision
// append is the 2PC commit point, so this sweeps the protocol's most
// delicate window. Invariants:
//
//   - Presumed abort, no phantom commit: a cross-shard transaction whose
//     commit errored is all-or-nothing after restart. With a transient fail
//     the decision append never applied, so the transaction must be fully
//     absent. A crash may leave the decision record durable before the error
//     surfaces (tear-all, or a tear that hits the sync after a complete
//     write — the classic lost ack), in which case the transaction may
//     surface whole: the coordinator log is the commit point and recovery on
//     every shard obeys it uniformly. It never surfaces on a strict subset
//     of its shards.
//   - Failure latches narrowly: after the coordinator log latches, further
//     cross-shard commits fail fast with ErrCoordinatorDown while
//     single-shard commits on every shard keep acking.
//   - Online repair: Heal + RecoverCoordinator restores cross-shard commits
//     without restarting the cluster; a restart also clears the latch (the
//     torn tail is trimmed) and holds its state across a second restart.

// coordPath is where the cluster keeps its decision log (see shard.Open).
func coordPath(dir string) string { return filepath.Join(dir, "coord.wal") }

// cfScript runs the cross-shard-heavy phase: six transactions, each writing
// one node on two different shards (every commit appends one coordinator
// decision).
func cfScript(r *sfRun, perShard [][]uint64) {
	for i := 0; i < 6; i++ {
		s1, s2 := i%sfShards, (i+1)%sfShards
		val := 1100 + int64(i)
		key := fmt.Sprintf("c%d", i)
		r.runTx(val, []sfWrite{{perShard[s1][i%4], key}, {perShard[s2][(i+1)%4], key}}, nil)
	}
}

// CoordFaultGolden counts the coordinator-scoped persist points of the
// script and verifies the no-fault run acks every transaction.
func CoordFaultGolden(dir string) (int64, error) {
	ffs := faultinject.New(vfs.OS())
	ffs.SetScope(coordPath(dir))
	db, perShard, err := sfSetup(dir, ffs)
	if err != nil {
		return 0, fmt.Errorf("golden setup: %w", err)
	}
	defer db.Close()
	ops0 := ffs.Ops()
	r := &sfRun{db: db}
	cfScript(r, perShard)
	points := ffs.Ops() - ops0
	for i, t := range r.txs {
		if !t.acked {
			return 0, fmt.Errorf("golden run: tx %d failed with no fault armed: %v", i, t.err)
		}
	}
	if err := db.Close(); err != nil {
		return 0, fmt.Errorf("golden close: %w", err)
	}
	return points, nil
}

// CoordFaultRunPoint injects one fault at the point-th coordinator-log
// operation and checks the invariants above.
func CoordFaultRunPoint(dir string, point int64, mode sfMode) Result {
	res := Result{Point: point, Tear: mode.Tear, Recovered: -1}
	ffs := faultinject.New(vfs.OS())
	ffs.SetScope(coordPath(dir))
	db, perShard, err := sfSetup(dir, ffs)
	if err != nil {
		res.Err = fmt.Errorf("setup: %w", err)
		return res
	}
	defer db.Close()
	if mode.Fail {
		ffs.FailIn(point)
	} else {
		ffs.CrashIn(point, mode.Tear)
	}

	r := &sfRun{db: db}
	cfScript(r, perShard)
	for _, t := range r.txs {
		if t.acked {
			res.Completed++
		}
	}

	res.Recovered, res.Err = cfCheck(db, ffs, dir, perShard, r.txs, mode)
	return res
}

// cfCheck probes the latched cluster, repairs it online, and verifies the
// ledger across restarts.
func cfCheck(db *h2tap.DB, ffs *faultinject.FS, dir string, perShard [][]uint64, txs []*sfTx, mode sfMode) (int, error) {
	c := db.Cluster()
	latched := c.CoordErr() != nil
	if !latched {
		return 0, errors.New("coordinator-scoped fault fired but the decision log never latched")
	}

	// Only cross-shard commits are refused; every shard still acks
	// single-shard traffic.
	for i := 0; i < sfShards; i++ {
		probe := &sfTx{writes: []sfWrite{{perShard[i][3], "probe"}}, val: 2100 + int64(i)}
		txs = append(txs, probe)
		tx, err := db.BeginSharded()
		if err != nil {
			return -1, fmt.Errorf("probe begin: %w", err)
		}
		if err := tx.SetNodeProp(perShard[i][3], "probe", h2tap.Int(probe.val)); err != nil {
			tx.Abort()
			return -1, fmt.Errorf("latched coordinator blocked a single-shard write on shard %d: %w", i, err)
		}
		if err := tx.Commit(); err != nil {
			return -1, fmt.Errorf("latched coordinator blocked a single-shard commit on shard %d: %w", i, err)
		}
		probe.acked = true
	}
	crossTx, err := db.BeginSharded()
	if err != nil {
		return -1, fmt.Errorf("cross probe begin: %w", err)
	}
	if err := crossTx.SetNodeProp(perShard[0][0], "cx", h2tap.Int(1)); err == nil {
		err = crossTx.SetNodeProp(perShard[1][0], "cx", h2tap.Int(1))
	}
	if err != nil {
		crossTx.Abort()
		return -1, fmt.Errorf("cross probe build: %w", err)
	}
	if err := crossTx.Commit(); err == nil {
		return -1, errors.New("cross-shard commit acked while the coordinator log was latched")
	} else if !errors.Is(err, shard.ErrCoordinatorDown) {
		return -1, fmt.Errorf("latched cross-shard commit failed without ErrCoordinatorDown: %v", err)
	}

	// Online repair: heal the device, reopen the decision log in place.
	ffs.Heal()
	if err := db.RecoverCoordinator(); err != nil {
		return -1, fmt.Errorf("RecoverCoordinator: %w", err)
	}
	if err := c.CoordErr(); err != nil {
		return -1, fmt.Errorf("coordinator still latched after recovery: %v", err)
	}
	// Reconciliation may have quarantined participants of a heuristic abort
	// whose decision was durably committed (lost ack); recover them so the
	// resurrected transaction is applied online, not just after restart.
	for i := 0; i < sfShards; i++ {
		if st, _ := c.Domain(i).Health(); st == shard.ShardDown {
			if err := db.RecoverShard(i); err != nil {
				return -1, fmt.Errorf("post-reconcile RecoverShard(%d): %w", i, err)
			}
		}
	}
	repaired := &sfTx{writes: []sfWrite{{perShard[0][1], "fix"}, {perShard[1][1], "fix"}}, val: 2200}
	txs = append(txs, repaired)
	tx, err := db.BeginSharded()
	if err != nil {
		return -1, fmt.Errorf("post-repair begin: %w", err)
	}
	for _, w := range repaired.writes {
		if err := tx.SetNodeProp(w.node, w.key, h2tap.Int(repaired.val)); err != nil {
			tx.Abort()
			return -1, fmt.Errorf("post-repair write: %w", err)
		}
	}
	if err := tx.Commit(); err != nil {
		return 1, fmt.Errorf("cross-shard commit still failing after RecoverCoordinator: %w", err)
	}
	repaired.acked = true

	// Restart and verify the ledger. An errored cross-shard transaction must
	// be all-or-nothing; with a transient fail its decision record was never
	// durable, so presumed abort means fully absent.
	if err := db.Close(); err != nil {
		return 1, fmt.Errorf("close: %w", err)
	}
	db2, err := h2tap.Open(h2tap.Options{Shards: sfShards, PersistDir: dir})
	if err != nil {
		return 1, fmt.Errorf("restart: %w", err)
	}
	defer db2.Close()
	if err := db2.Cluster().CoordErr(); err != nil {
		return 1, fmt.Errorf("coordinator latched after restart: %v", err)
	}
	if err := sfVerifyLedger(db2, txs); err != nil {
		return 1, fmt.Errorf("after restart: %w", err)
	}
	if mode.Fail {
		// Strict presumed abort: the transient fail never applied the
		// decision append, so no errored transaction may have surfaced.
		// (Crash flavors can leave the record durable before erroring — a
		// lost ack — so there the ledger's all-or-nothing check is the
		// invariant, not absence.)
		rtx, err := db2.BeginSharded()
		if err != nil {
			return 1, fmt.Errorf("presumed-abort read begin: %w", err)
		}
		for i, t := range txs {
			if t.acked {
				continue
			}
			for _, w := range t.writes {
				v, err := rtx.GetNodeProp(w.node, w.key)
				if err != nil {
					rtx.Abort()
					return 1, fmt.Errorf("presumed-abort read: %w", err)
				}
				if v.String() == h2tap.Int(t.val).String() {
					rtx.Abort()
					return 1, fmt.Errorf("tx %d (val %d): phantom commit — decision append errored without durability yet the transaction surfaced", i, t.val)
				}
			}
		}
		rtx.Abort() //nolint:errcheck
	}

	// Durability across a second restart.
	fp := ClusterFingerprint(db2.Cluster())
	if err := db2.Close(); err != nil {
		return 1, fmt.Errorf("second close: %w", err)
	}
	db3, err := h2tap.Open(h2tap.Options{Shards: sfShards, PersistDir: dir})
	if err != nil {
		return 1, fmt.Errorf("second restart: %w", err)
	}
	defer db3.Close()
	if ClusterFingerprint(db3.Cluster()) != fp {
		return 1, errors.New("state not stable across a second restart")
	}
	return 1, nil
}

// CoordFaultEnumerate sweeps coordinator-log faults over every decision
// append of the script, in every flavor.
func CoordFaultEnumerate(baseDir string, maxPerMode int) (*Report, error) {
	points, err := CoordFaultGolden(filepath.Join(baseDir, "golden"))
	if err != nil {
		return nil, fmt.Errorf("crashtest: coord-fault golden run: %w", err)
	}
	rep := &Report{Points: points}
	for _, mode := range sfModes {
		for _, p := range samplePoints(points, maxPerMode) {
			dir := filepath.Join(baseDir, fmt.Sprintf("cf-p%04d-%s", p, mode))
			res := CoordFaultRunPoint(dir, p, mode)
			if res.Err != nil {
				res.Err = fmt.Errorf("coordinator %s at in-scope op %d: %w", mode, p, res.Err)
				rep.Failures++
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, nil
}
