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

// 2PC crash enumeration: the same crash-point methodology as the
// single-domain harness, applied to a 3-shard cluster whose workload commits
// cross-shard transactions — those that write several shards through the
// two-phase protocol, those that write one through the single-shard path.
// Crashing at every persist point sweeps through every stage of 2PC —
// per-shard prepare records, the coordinator decision record, per-shard
// local decisions and publication — plus shard WAL rotations. The core
// invariant is atomicity ACROSS shards: the recovered cluster state must
// equal the golden state after m whole logical transactions (m = completed,
// or completed+1 when the in-flight transaction's outcome became durable).
// A recovery that kept one
// shard's half of a cross-shard transaction while dropping another's would
// fingerprint as none of the golden states and fail the prefix check.

// twopcShards is the cluster width under test: three shards means every
// multi-writer commit writes at least two prepare records plus a
// coordinator decision, with a third shard idle — so recovery must also
// leave untouched shards alone.
const twopcShards = 3

// ClusterFingerprint renders a sharded database's committed state as the
// concatenation of every shard's canonical fingerprint. Ghost stand-in rows
// are part of shard state and are included — they commit and abort with
// their transaction, so they too must be all-or-nothing.
func ClusterFingerprint(c *shard.Cluster) string {
	var sb strings.Builder
	for i := 0; i < c.Shards(); i++ {
		fmt.Fprintf(&sb, "shard%d\n%s", i, Fingerprint(c.Domain(i).Store()))
	}
	return sb.String()
}

// twopcWorkload replays the deterministic sharded scenario on fsys: six
// transactions (five of them cross-shard), two propagation sweeps and a
// checkpoint. Node placement hashes the allocation sequence, so IDs, shard
// assignments and each transaction's commit path are identical across runs:
// the node batch, the ring, the cascading delete and the back edge write
// several shards (two-phase commit), the far edge writes only its source's
// shard and reads the destination's (one writer), and the chord stays on
// one shard.
func twopcWorkload(dir string, fsys vfs.FS, st *runState) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("crashtest: 2pc workload panic: %v", r)
		}
	}()
	db, err := h2tap.Open(h2tap.Options{
		Shards:     twopcShards,
		PersistDir: dir,
		SyncWAL:    true,
		FS:         fsys,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	st.fps = append(st.fps, ClusterFingerprint(db.Cluster()))

	commit := func(fn func(tx *h2tap.ClusterTx) error) error {
		tx, err := db.BeginSharded()
		if err != nil {
			return err
		}
		if err := fn(tx); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		st.completed++
		st.fps = append(st.fps, ClusterFingerprint(db.Cluster()))
		return nil
	}

	// Eight nodes: hashed placement over three shards guarantees at least
	// two shards are populated, so the edges below include cross-shard ones.
	nodes := make([]uint64, 8)
	if err := commit(func(tx *h2tap.ClusterTx) error {
		for i := range nodes {
			var err error
			if nodes[i], err = tx.AddNode("Person", map[string]h2tap.Value{"i": h2tap.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// A ring visits every node: with ≥2 populated shards some hops cross.
	if err := commit(func(tx *h2tap.ClusterTx) error {
		for i := range nodes {
			if _, err := tx.AddRel(nodes[i], nodes[(i+1)%len(nodes)], "ring", 1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := db.Propagate(); err != nil {
		return err
	}
	if err := commit(func(tx *h2tap.ClusterTx) error {
		if err := tx.SetNodeProp(nodes[0], "i", h2tap.Int(100)); err != nil {
			return err
		}
		_, err := tx.AddRel(nodes[0], nodes[4], "chord", 2)
		return err
	}); err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	if err := commit(func(tx *h2tap.ClusterTx) error {
		// Cascades across shards: node 3's ring edges live in two shards and
		// its ghost rows elsewhere must go with it atomically.
		return tx.DeleteNode(nodes[3])
	}); err != nil {
		return err
	}
	if _, err := db.Propagate(); err != nil {
		return err
	}
	if err := commit(func(tx *h2tap.ClusterTx) error {
		if _, err := tx.AddRel(nodes[5], nodes[0], "back", 1); err != nil {
			return err
		}
		return tx.SetNodeProp(nodes[6], "i", h2tap.Int(60))
	}); err != nil {
		return err
	}
	if err := commit(func(tx *h2tap.ClusterTx) error {
		_, err := tx.AddRel(nodes[7], nodes[2], "far", 3)
		return err
	}); err != nil {
		return err
	}
	// A failed phase-two decision record is not returned by Commit — the
	// coordinator's durable decision already made the outcome commit — it
	// quarantines its shard instead. Surface that too.
	if _, err := db.Health(); err != nil {
		return err
	}
	for p := range st.commits {
		st.commits[p] = db.Cluster().Commits(shard.CommitPath(p))
	}
	return db.Close()
}

// TwopcGoldenRun replays the sharded workload with no faults.
func TwopcGoldenRun(dir string) (*Golden, error) { return goldenRun(dir, twopcWorkload) }

// TwopcRunPoint crashes the sharded workload at one persist operation,
// recovers, and checks the cross-shard invariants.
func TwopcRunPoint(dir string, point int64, tear faultinject.TearMode, golden []string) Result {
	ffs := faultinject.New(vfs.OS())
	ffs.CrashAt(point, tear)
	var st runState
	_ = twopcWorkload(dir, ffs, &st)

	res := Result{Point: point, Tear: tear, Completed: st.completed, Recovered: -1}
	res.Recovered, res.Err = twopcRecoverAndCheck(dir, golden, st.completed)
	return res
}

// twopcRecoverAndCheck re-opens the crashed cluster and asserts:
//
//   - Committed prefix, atomically across shards: the recovered composite
//     fingerprint equals golden[completed] or golden[completed+1] — never a
//     state mixing one shard's half of a transaction with another's absence.
//   - In-doubt resolution is the coordinator's decision: an in-flight
//     cross-shard transaction either committed on every shard (its decision
//     record was durable) or aborted on every shard (presumed abort).
//   - Service resumes: a post-recovery cross-shard commit succeeds, and a
//     stitched analytics run covers exactly the recovered edges.
//   - Durability holds again across a second restart.
func twopcRecoverAndCheck(dir string, golden []string, completed int) (int, error) {
	open := func() (*h2tap.DB, error) {
		return h2tap.Open(h2tap.Options{
			Shards:     twopcShards,
			PersistDir: dir,
		})
	}
	db, err := open()
	if err != nil {
		return -1, fmt.Errorf("recovery open: %w", err)
	}
	defer db.Close()

	fp := ClusterFingerprint(db.Cluster())
	m := -1
	for i, g := range golden {
		if g == fp {
			m = i
			break
		}
	}
	if m < 0 {
		return -1, errors.New("recovered cluster state is not a committed prefix (cross-shard atomicity violated)")
	}
	if m < completed || m > completed+1 {
		return m, fmt.Errorf("recovered %d committed transactions, want %d or %d", m, completed, completed+1)
	}

	// Service resumes with a cross-shard probe: two fresh nodes plus an edge
	// between them (placement-hashed, so possibly cross-shard; both layouts
	// must work).
	tx, err := db.BeginSharded()
	if err != nil {
		return m, fmt.Errorf("post-recovery begin: %w", err)
	}
	pa, err := tx.AddNode("Probe", map[string]h2tap.Value{"m": h2tap.Int(int64(m))})
	if err != nil {
		tx.Abort()
		return m, fmt.Errorf("post-recovery insert: %w", err)
	}
	pb, err := tx.AddNode("Probe", nil)
	if err != nil {
		tx.Abort()
		return m, fmt.Errorf("post-recovery insert: %w", err)
	}
	if _, err := tx.AddRel(pa, pb, "probe", 1); err != nil {
		tx.Abort()
		return m, fmt.Errorf("post-recovery insert: %w", err)
	}
	if err := tx.Commit(); err != nil {
		return m, fmt.Errorf("post-recovery commit: %w", err)
	}

	// A stitched analytics run must see exactly the recovered edges: every
	// relationship is stored once, in its owner shard, so the composite edge
	// count equals the summed per-shard live counts.
	st, err := db.RunAnalyticsStitched(h2tap.WCC, pa)
	if err != nil {
		return m, fmt.Errorf("post-recovery stitched analytics: %w", err)
	}
	var wantEdges int64
	for i := 0; i < db.Cluster().Shards(); i++ {
		wantEdges += db.Cluster().Domain(i).Store().LiveRels()
	}
	if st.Edges != wantEdges {
		return m, fmt.Errorf("stitched composite has %d edges, recovered stores hold %d", st.Edges, wantEdges)
	}

	if err := db.Checkpoint(); err != nil {
		return m, fmt.Errorf("post-recovery checkpoint: %w", err)
	}
	after := ClusterFingerprint(db.Cluster())
	if err := db.Close(); err != nil {
		return m, fmt.Errorf("close after recovery: %w", err)
	}
	db2, err := open()
	if err != nil {
		return m, fmt.Errorf("second recovery: %w", err)
	}
	defer db2.Close()
	if ClusterFingerprint(db2.Cluster()) != after {
		return m, errors.New("post-recovery commit lost across a second restart")
	}
	return m, nil
}

// TwopcEnumerate sweeps crash points through the sharded workload for each
// tear mode, exactly like Enumerate does for the single-domain one.
func TwopcEnumerate(baseDir string, maxPerMode int, tears []faultinject.TearMode) (*Report, error) {
	g, err := TwopcGoldenRun(filepath.Join(baseDir, "golden"))
	if err != nil {
		return nil, fmt.Errorf("crashtest: 2pc golden run: %w", err)
	}
	if len(tears) == 0 {
		tears = []faultinject.TearMode{faultinject.TearAll, faultinject.TearHalf}
	}
	rep := &Report{Points: g.Points()}
	for _, tear := range tears {
		for _, p := range samplePoints(g.Points(), maxPerMode) {
			dir := filepath.Join(baseDir, fmt.Sprintf("2pc-p%04d-%s", p, tear))
			res := TwopcRunPoint(dir, p, tear, g.Fps)
			rep.Results = append(rep.Results, res)
			if res.Err != nil {
				rep.Failures++
			}
		}
	}
	return rep, nil
}
