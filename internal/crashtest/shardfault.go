package crashtest

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"h2tap"
	"h2tap/internal/faultinject"
	"h2tap/internal/shard"
	"h2tap/internal/vfs"
)

// Shard fault-domain enumeration: fault injection scoped to ONE shard's
// directory — modeling that shard's device failing while the rest of the
// machine keeps working — at every in-scope persist point, in transient
// (FailAt) and crash (CrashAt × tear mode) flavors. Unlike the whole-process
// crash enumeration, the cluster stays up: the invariants under test are the
// fault-domain ones of DESIGN.md §5j.
//
//   - Isolation: after the target shard quarantines, writes touching it shed
//     with ErrShardDown carrying the shard index; single-shard transactions
//     on healthy shards keep committing and stitched analytics keep serving
//     (with the Down shard excluded from the composite).
//   - No half-exposure: every scripted transaction — acked or not — is
//     all-or-nothing across shards when read back after recovery.
//   - Acked durability: a transaction whose Commit returned nil is fully
//     visible after recovery and after a full restart.
//   - Online convergence: RecoverShard reopens the target from its own WAL,
//     checkpoint and the coordinator's decisions while the cluster serves,
//     and the resulting cluster state fingerprints identically to a cold
//     restart of the same directory — online recovery reaches exactly the
//     durable state.

// sfShards is the cluster width; three shards gives the enumeration a down
// shard plus two healthy ones, so both healthy-only and mixed cross-shard
// transactions exist at every point.
const sfShards = 3

// sfMode is one fault flavor of the enumeration.
type sfMode struct {
	Fail bool // transient injected error instead of a crash
	Tear faultinject.TearMode
}

func (m sfMode) String() string {
	if m.Fail {
		return "fail"
	}
	return "crash-" + m.Tear.String()
}

// sfModes is the covering set: one transient flavor plus both tear modes of
// the scoped-crash model.
var sfModes = []sfMode{
	{Fail: true},
	{Tear: faultinject.TearHalf},
	{Tear: faultinject.TearAll},
}

// sfWrite is one property write a scripted transaction attempts; the
// (node, key, value) triple makes applied-ness checkable after the fact.
type sfWrite struct {
	node uint64
	key  string
}

// sfTx is the ledger entry for one scripted transaction.
type sfTx struct {
	writes []sfWrite
	val    int64
	cross  bool
	acked  bool
	err    error
}

// sfRun drives the scripted scenario and accumulates the ledger.
type sfRun struct {
	db  *h2tap.DB
	txs []*sfTx
}

// runTx executes one scripted transaction: every write sets its key to the
// same value, plus optional extra ops from build. The outcome lands in the
// ledger; scripted transactions are allowed to fail (that is the point).
func (r *sfRun) runTx(val int64, writes []sfWrite, build func(tx *h2tap.ClusterTx) error) {
	t := &sfTx{writes: writes, val: val}
	r.txs = append(r.txs, t)
	tx, err := r.db.BeginSharded()
	if err != nil {
		t.err = err
		return
	}
	seen := map[int]bool{}
	for _, w := range writes {
		seen[shard.NewPartitioner(sfShards).ShardOf(w.node)] = true
		if err := tx.SetNodeProp(w.node, w.key, h2tap.Int(val)); err != nil {
			tx.Abort()
			t.err = err
			return
		}
	}
	t.cross = len(seen) > 1
	if build != nil {
		if err := build(tx); err != nil {
			tx.Abort()
			t.err = err
			return
		}
	}
	if err := tx.Commit(); err != nil {
		t.err = err
		return
	}
	t.acked = true
}

// sfShardDir is the scope prefix for one shard's fault domain.
func sfShardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// sfSetup opens a 3-shard cluster on fsys and builds the base graph: at
// least four nodes per shard, a cross-shard ring over all of them, one
// propagation (engines up) and a checkpoint (so later recovery replays
// checkpoint + WAL, not WAL alone). Placement hashes the allocation
// sequence, so the layout is identical across runs.
func sfSetup(dir string, fsys vfs.FS) (*h2tap.DB, [][]uint64, error) {
	return sfSetupN(dir, fsys, 4)
}

// sfSetupN is sfSetup with a configurable per-shard node floor (the chaos
// storm needs enough nodes to give every writer goroutine its own).
func sfSetupN(dir string, fsys vfs.FS, minPerShard int) (*h2tap.DB, [][]uint64, error) {
	db, err := h2tap.Open(h2tap.Options{
		Shards:     sfShards,
		PersistDir: dir,
		SyncWAL:    true,
		FS:         fsys,
	})
	if err != nil {
		return nil, nil, err
	}
	p := shard.NewPartitioner(sfShards)
	perShard := make([][]uint64, sfShards)
	var all []uint64
	tx, err := db.BeginSharded()
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	for {
		full := true
		for _, l := range perShard {
			if len(l) < minPerShard {
				full = false
			}
		}
		if full {
			break
		}
		g, err := tx.AddNode("N", map[string]h2tap.Value{"seq": h2tap.Int(int64(len(all)))})
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		perShard[p.ShardOf(g)] = append(perShard[p.ShardOf(g)], g)
		all = append(all, g)
	}
	// Ring each shard's own nodes. Keeping the setup rels intra-shard means
	// the script's cross-shard AddRels can never collide with them.
	for _, l := range perShard {
		for i := range l {
			if _, err := tx.AddRel(l[i], l[(i+1)%len(l)], "ring", 1); err != nil {
				db.Close()
				return nil, nil, err
			}
		}
	}
	if err := tx.Commit(); err != nil {
		db.Close()
		return nil, nil, err
	}
	if _, err := db.Propagate(); err != nil {
		db.Close()
		return nil, nil, err
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, perShard, nil
}

// sfScript is the faulted phase: a fixed mix of single-shard transactions on
// the target, single-shard transactions on healthy shards, cross-shard
// transactions involving the target and cross-shard transactions among the
// healthy pair, interleaved with propagations and a checkpoint. Errors from
// propagate/checkpoint are expected once the target is down and ignored;
// the ledger records each transaction's fate.
func sfScript(r *sfRun, perShard [][]uint64, target int) {
	h1, h2 := (target+1)%sfShards, (target+2)%sfShards
	s := perShard[target]
	a, b := perShard[h1], perShard[h2]

	r.runTx(1001, []sfWrite{{s[0], "v"}}, nil)
	r.runTx(1002, []sfWrite{{a[0], "v"}}, nil)
	r.runTx(1003, []sfWrite{{s[1], "x"}, {a[1], "x"}}, func(tx *h2tap.ClusterTx) error {
		_, err := tx.AddRel(s[1], a[1], "x1", 1)
		return err
	})
	r.db.Propagate() //nolint:errcheck // expected to degrade once the target is down
	r.runTx(1005, []sfWrite{{s[0], "v2"}}, nil)
	r.runTx(1006, []sfWrite{{a[2], "y"}, {b[2], "y"}}, func(tx *h2tap.ClusterTx) error {
		_, err := tx.AddRel(a[2], b[2], "y1", 1)
		return err
	})
	r.db.Checkpoint() //nolint:errcheck // quarantines the target, healthy shards rotate
	r.runTx(1008, []sfWrite{{s[2], "z"}, {b[0], "z"}}, func(tx *h2tap.ClusterTx) error {
		_, err := tx.AddRel(b[0], s[2], "z1", 1)
		return err
	})
	r.runTx(1009, []sfWrite{{b[1], "v"}}, nil)
	r.db.Propagate() //nolint:errcheck
	r.runTx(1011, []sfWrite{{s[0], "w"}}, nil)
}

// sfVerifyLedger checks the ledger against the live cluster: acked
// transactions fully visible, unacked ones all-or-nothing (an in-flight
// transaction whose outcome became durable before the fault may surface
// whole — never torn across shards).
func sfVerifyLedger(db *h2tap.DB, txs []*sfTx) error {
	tx, err := db.BeginSharded()
	if err != nil {
		return fmt.Errorf("ledger read begin: %w", err)
	}
	defer tx.Abort() //nolint:errcheck // read-only
	for i, t := range txs {
		applied := 0
		for _, w := range t.writes {
			v, err := tx.GetNodeProp(w.node, w.key)
			if err != nil {
				return fmt.Errorf("ledger read node %d: %w", w.node, err)
			}
			if v.String() == h2tap.Int(t.val).String() {
				applied++
			}
		}
		switch {
		case t.acked && applied != len(t.writes):
			return fmt.Errorf("tx %d (val %d): acked but only %d/%d writes visible (acked commit lost)",
				i, t.val, applied, len(t.writes))
		case !t.acked && applied != 0 && applied != len(t.writes):
			return fmt.Errorf("tx %d (val %d): %d/%d writes visible (half-exposed across shards; commit error was %v)",
				i, t.val, applied, len(t.writes), t.err)
		}
	}
	return nil
}

// ShardFaultGolden replays setup + script against the target shard's scope
// with no fault armed, returning the number of in-scope persist points the
// script covers (the enumeration domain) and verifying the no-fault run
// acks every transaction.
func ShardFaultGolden(dir string, target int) (int64, error) {
	ffs := faultinject.New(vfs.OS())
	ffs.SetScope(sfShardDir(dir, target))
	db, perShard, err := sfSetup(dir, ffs)
	if err != nil {
		return 0, fmt.Errorf("golden setup: %w", err)
	}
	defer db.Close()
	ops0 := ffs.Ops()
	r := &sfRun{db: db}
	sfScript(r, perShard, target)
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

// ShardFaultRunPoint injects one scoped fault at the point-th in-scope
// persist operation of the script and checks every fault-domain invariant.
// Completed reports acked scripted transactions; Recovered is 1 when the
// target quarantined and RecoverShard brought it back, 0 when the transient
// fault was absorbed without quarantine.
func ShardFaultRunPoint(dir string, target int, point int64, mode sfMode) Result {
	res := Result{Point: point, Tear: mode.Tear, Recovered: -1}
	ffs := faultinject.New(vfs.OS())
	ffs.SetScope(sfShardDir(dir, target))
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
	sfScript(r, perShard, target)
	for _, t := range r.txs {
		if t.acked {
			res.Completed++
		}
	}

	res.Recovered, res.Err = sfCheck(db, ffs, dir, target, perShard, r.txs)
	return res
}

// sfCheck runs the post-script probes, recovery and verification; see the
// package comment above for the invariants.
func sfCheck(db *h2tap.DB, ffs *faultinject.FS, dir string, target int, perShard [][]uint64, txs []*sfTx) (int, error) {
	c := db.Cluster()
	h1 := (target + 1) % sfShards
	downSt, _ := c.Domain(target).Health()

	// Isolation probes: healthy shards must keep acking single-shard
	// commits; a Down target must shed with the structured error.
	for i := 0; i < sfShards; i++ {
		probe := &sfTx{writes: []sfWrite{{perShard[i][3], "probe"}}, val: 2000 + int64(i)}
		txs = append(txs, probe)
		tx, err := db.BeginSharded()
		if err != nil {
			return -1, fmt.Errorf("probe begin: %w", err)
		}
		err = tx.SetNodeProp(perShard[i][3], "probe", h2tap.Int(probe.val))
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort() //nolint:errcheck
		}
		probe.err = err
		switch {
		case i == target && downSt == shard.ShardDown:
			if err == nil {
				return -1, fmt.Errorf("shard %d is down but a write to it committed", target)
			}
			if !errors.Is(err, shard.ErrShardDown) {
				return -1, fmt.Errorf("write to down shard %d failed without ErrShardDown: %v", target, err)
			}
			var sde *shard.ShardDownError
			if !errors.As(err, &sde) || sde.Shard != target {
				return -1, fmt.Errorf("ShardDownError names wrong shard (got %v, want %d)", err, target)
			}
		case err != nil:
			return -1, fmt.Errorf("healthy shard %d refused a single-shard commit: %w", i, err)
		default:
			probe.acked = true
		}
	}

	// Degraded stitched analytics: the healthy subgraph keeps serving with
	// the Down shard excluded.
	if downSt == shard.ShardDown {
		st, err := db.RunAnalyticsStitched(h2tap.WCC, perShard[h1][0])
		if err != nil {
			return -1, fmt.Errorf("stitched analytics with shard %d down: %w", target, err)
		}
		found := false
		for _, e := range st.Excluded {
			if e == target {
				found = true
			}
		}
		if !found {
			return -1, fmt.Errorf("stitch with shard %d down did not exclude it (excluded %v)", target, st.Excluded)
		}
	}

	// Online recovery: clear the simulated device fault, reopen the shard in
	// place while the cluster stays up.
	ffs.Heal()
	recovered := 0
	if downSt == shard.ShardDown {
		if err := db.RecoverShard(target); err != nil {
			return -1, fmt.Errorf("RecoverShard(%d): %w", target, err)
		}
		if st, cause := c.Domain(target).Health(); st != shard.ShardHealthy {
			return -1, fmt.Errorf("shard %d still %s after recovery: %v", target, st, cause)
		}
		if got := c.Domain(target).Recoveries(); got != 1 {
			return -1, fmt.Errorf("shard %d recovery count %d, want 1", target, got)
		}
		recovered = 1
	}

	// The ledger must hold on the recovered live cluster.
	if err := sfVerifyLedger(db, txs); err != nil {
		return recovered, err
	}

	// Service is fully restored: a cross-shard commit touching the target
	// acks, and a stitch covers every shard again.
	post := &sfTx{writes: []sfWrite{{perShard[target][0], "post"}, {perShard[h1][0], "post"}}, val: 3000}
	txs = append(txs, post)
	tx, err := db.BeginSharded()
	if err != nil {
		return recovered, fmt.Errorf("post-recovery begin: %w", err)
	}
	for _, w := range post.writes {
		if err := tx.SetNodeProp(w.node, w.key, h2tap.Int(post.val)); err != nil {
			tx.Abort()
			return recovered, fmt.Errorf("post-recovery write: %w", err)
		}
	}
	if _, err := tx.AddRel(perShard[target][0], perShard[h1][0], "post", 1); err != nil {
		tx.Abort()
		return recovered, fmt.Errorf("post-recovery rel: %w", err)
	}
	if err := tx.Commit(); err != nil {
		return recovered, fmt.Errorf("post-recovery cross-shard commit: %w", err)
	}
	post.acked = true
	st, err := db.RunAnalyticsStitched(h2tap.WCC, perShard[target][0])
	if err != nil {
		return recovered, fmt.Errorf("post-recovery stitch: %w", err)
	}
	if len(st.Excluded) != 0 {
		return recovered, fmt.Errorf("post-recovery stitch still excludes shards %v", st.Excluded)
	}
	var wantEdges int64
	for i := 0; i < sfShards; i++ {
		wantEdges += c.Domain(i).Store().LiveRels()
	}
	if st.Edges != wantEdges {
		return recovered, fmt.Errorf("post-recovery composite has %d edges, stores hold %d", st.Edges, wantEdges)
	}

	// Convergence: the online-recovered state must fingerprint identically
	// to a cold restart of the same directory — RecoverShard reached exactly
	// the durable state (scoped faults never touch the coordinator, so no
	// in-doubt decision can make the two diverge).
	fpOnline := ClusterFingerprint(c)
	if err := db.Close(); err != nil {
		return recovered, fmt.Errorf("close after recovery: %w", err)
	}
	db2, err := h2tap.Open(h2tap.Options{Shards: sfShards, PersistDir: dir})
	if err != nil {
		return recovered, fmt.Errorf("cold restart: %w", err)
	}
	defer db2.Close()
	if fpRestart := ClusterFingerprint(db2.Cluster()); fpRestart != fpOnline {
		return recovered, fmt.Errorf("online recovery diverges from cold restart:\n--- online ---\n%s--- restart ---\n%s",
			fpOnline, fpRestart)
	}
	if err := sfVerifyLedger(db2, txs); err != nil {
		return recovered, fmt.Errorf("after restart: %w", err)
	}
	return recovered, nil
}

// ShardFaultEnumerate sweeps scoped faults over every in-scope persist point
// of the script (or an evenly spaced sample of maxPerMode points per mode)
// for one target shard, across the transient + both-tear-modes flavor set.
func ShardFaultEnumerate(baseDir string, target, maxPerMode int) (*Report, error) {
	points, err := ShardFaultGolden(filepath.Join(baseDir, "golden"), target)
	if err != nil {
		return nil, fmt.Errorf("crashtest: shard-fault golden run: %w", err)
	}
	rep := &Report{Points: points}
	for _, mode := range sfModes {
		for _, p := range samplePoints(points, maxPerMode) {
			dir := filepath.Join(baseDir, fmt.Sprintf("sf%d-p%04d-%s", target, p, mode))
			res := ShardFaultRunPoint(dir, target, p, mode)
			if res.Err != nil {
				res.Err = fmt.Errorf("shard %d, %s at in-scope op %d: %w", target, mode, p, res.Err)
				rep.Failures++
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, nil
}

// sfModeNames lists the flavor set for test logs.
func sfModeNames() string {
	names := make([]string, len(sfModes))
	for i, m := range sfModes {
		names[i] = m.String()
	}
	return strings.Join(names, ",")
}
