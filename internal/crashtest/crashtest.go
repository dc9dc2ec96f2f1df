// Package crashtest is the crash-point enumeration harness: it drives a
// deterministic commit + propagate + checkpoint workload through the public
// h2tap facade on a fault-injecting filesystem, crashes the run at every
// persist point in turn, re-opens the database from the frozen files, and
// asserts the recovery invariants:
//
//   - Committed prefix: the recovered main graph equals the state after
//     exactly m committed transactions, where m is either the number of
//     commits that had completed when the crash hit, or that plus one (the
//     in-flight commit's log record may or may not have become durable —
//     never a torn half-state, never a lost completed commit).
//   - Service resumes: a post-recovery commit succeeds, a propagation
//     yields a replica identical to a CSR built fresh from the recovered
//     main graph, and a checkpoint compacts the log — even when the crash
//     interrupted a checkpoint and left its temp file behind.
//   - Durability holds again: the post-recovery commit survives a second
//     restart (which also replays the post-recovery checkpoint's log).
//
// The crash model (see internal/faultinject) is write-through with ordered
// writes, so crashing after operation N with nothing torn is the same
// durable state as crashing before operation N+1. Enumerating TearAll and
// TearHalf at every point therefore covers every boundary state and every
// torn-write state the model can produce.
package crashtest

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"h2tap"
	"h2tap/internal/csr"
	"h2tap/internal/faultinject"
	"h2tap/internal/graph"
	"h2tap/internal/shard"
	"h2tap/internal/vfs"
)

// Result records the outcome of one injected crash.
type Result struct {
	// Point is the 1-based persist-operation number the crash hit.
	Point int64
	// Tear is how much of the crashing operation was applied.
	Tear faultinject.TearMode
	// Completed is how many workload transactions had committed when the
	// crash hit.
	Completed int
	// Recovered is how many committed transactions the re-opened database
	// contained (-1 if recovery itself failed).
	Recovered int
	// Err is the first violated invariant, nil when all held.
	Err error
}

// Report summarizes a full enumeration.
type Report struct {
	// Points is the total number of persist points in the workload.
	Points int64
	// Results holds one entry per injected crash.
	Results []Result
	// Failures counts results with a non-nil Err.
	Failures int
}

// runState accumulates the workload's progress: how many transactions have
// committed and the canonical fingerprint after each (fps[m] is the state
// after m commits; fps[0] is the empty database).
type runState struct {
	completed   int
	checkpoints int // single-domain workload: completed checkpoints
	fps         []string
	commits     [shard.NumCommitPaths]uint64 // sharded workload: commits per path
}

// Fingerprint renders the committed graph state as a canonical string:
// every visible node and relationship at the newest committed timestamp, in
// ID order, with sorted properties. Two stores fingerprint equal iff they
// hold the same committed graph.
func Fingerprint(s *graph.Store) string {
	nodes, rels := s.ExportAt(s.Oracle().LastCommitted())
	var sb strings.Builder
	for i := range nodes {
		n := &nodes[i]
		fmt.Fprintf(&sb, "n%d|%s|%s\n", n.ID, n.Label, propsKey(n.Props))
	}
	for i := range rels {
		r := &rels[i]
		fmt.Fprintf(&sb, "r%d|%d>%d|%s|%g|%s\n", r.ID, r.Src, r.Dst, r.Label, r.Weight, propsKey(r.Props))
	}
	return sb.String()
}

func propsKey(props map[string]graph.Value) string {
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(props[k].String())
		sb.WriteByte(';')
	}
	return sb.String()
}

// workload is the deterministic scenario every run replays: nine
// transactions exercising inserts, property updates and deletes (of
// relationships and of a node), three update propagations, and two
// checkpoints, all against a persistent database on fsys. It bails out at
// the first error (the injected crash) and records progress in st as it
// goes, so a crashed run still reports how many commits completed.
func workload(dir string, fsys vfs.FS, st *runState) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("crashtest: workload panic: %v", r)
		}
	}()
	db, err := h2tap.Open(h2tap.Options{
		PersistDir: dir,
		SyncWAL:    true,
		FS:         fsys,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	st.fps = append(st.fps, Fingerprint(db.Store()))

	commit := func(fn func(tx *h2tap.Tx) error) error {
		tx := db.Begin()
		if err := fn(tx); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		st.completed++
		st.fps = append(st.fps, Fingerprint(db.Store()))
		return nil
	}
	checkpoint := func() error {
		if err := db.Checkpoint(); err != nil {
			return err
		}
		st.checkpoints++
		return nil
	}

	// IDs are allocated sequentially, so they are identical across runs:
	// nodes a=0 b=1 c=2 d=3 e=4, rels a->b=0 b->c=1 c->a=2 a->c=3 d->a=4
	// b->a=5 e->b=6.
	var a, b, c, d h2tap.NodeID
	if err := commit(func(tx *h2tap.Tx) error {
		var err error
		if a, err = tx.AddNode("Person", map[string]h2tap.Value{"name": h2tap.Str("alice")}); err != nil {
			return err
		}
		if b, err = tx.AddNode("Person", map[string]h2tap.Value{"name": h2tap.Str("bob")}); err != nil {
			return err
		}
		_, err = tx.AddRel(a, b, "knows", 1)
		return err
	}); err != nil {
		return err
	}
	if err := commit(func(tx *h2tap.Tx) error {
		var err error
		if c, err = tx.AddNode("Person", map[string]h2tap.Value{"age": h2tap.Int(30)}); err != nil {
			return err
		}
		if _, err = tx.AddRel(b, c, "knows", 2); err != nil {
			return err
		}
		_, err = tx.AddRel(c, a, "knows", 0.5)
		return err
	}); err != nil {
		return err
	}
	if _, err := db.Propagate(); err != nil {
		return err
	}
	if err := commit(func(tx *h2tap.Tx) error {
		if err := tx.SetNodeProp(a, "name", h2tap.Str("alice2")); err != nil {
			return err
		}
		_, err := tx.AddRel(a, c, "likes", 2.5)
		return err
	}); err != nil {
		return err
	}
	if err := commit(func(tx *h2tap.Tx) error {
		return tx.DeleteRel(0)
	}); err != nil {
		return err
	}
	if err := checkpoint(); err != nil {
		return err
	}
	if err := commit(func(tx *h2tap.Tx) error {
		var err error
		if d, err = tx.AddNode("City", map[string]h2tap.Value{"pop": h2tap.Int(1000)}); err != nil {
			return err
		}
		_, err = tx.AddRel(d, a, "in", 1)
		return err
	}); err != nil {
		return err
	}
	if _, err := db.Propagate(); err != nil {
		return err
	}
	if err := commit(func(tx *h2tap.Tx) error {
		if err := tx.SetNodeProp(c, "age", h2tap.Int(31)); err != nil {
			return err
		}
		return tx.DeleteRel(3)
	}); err != nil {
		return err
	}
	if err := commit(func(tx *h2tap.Tx) error {
		_, err := tx.AddRel(b, a, "knows", 1.5)
		return err
	}); err != nil {
		return err
	}
	// The second checkpoint snapshots a log that already starts with one.
	if err := checkpoint(); err != nil {
		return err
	}
	if err := commit(func(tx *h2tap.Tx) error {
		return tx.DeleteNode(d) // takes d->a with it
	}); err != nil {
		return err
	}
	if err := commit(func(tx *h2tap.Tx) error {
		e, err := tx.AddNode("City", map[string]h2tap.Value{"pop": h2tap.Int(20)})
		if err != nil {
			return err
		}
		_, err = tx.AddRel(e, b, "in", 2)
		return err
	}); err != nil {
		return err
	}
	if _, err := db.Propagate(); err != nil {
		return err
	}
	return db.Close()
}

// Golden is a fault-free run of a workload.
type Golden struct {
	// OpPaths names the file of every persist operation, relative to the
	// database directory: OpPaths[i] is operation i+1.
	OpPaths []string
	// Fps is the fingerprint after each committed transaction (Fps[0] is
	// the empty database).
	Fps []string
	// Checkpoints counts the single-domain workload's checkpoints.
	Checkpoints int
	// Commits counts the sharded workload's transactions per commit path.
	Commits [shard.NumCommitPaths]uint64
}

// Points is the workload's persist-point count.
func (g *Golden) Points() int64 { return int64(len(g.OpPaths)) }

// GoldenRun replays the single-domain workload with no faults. Running it
// twice on fresh directories must yield identical results — the
// determinism the enumeration relies on.
func GoldenRun(dir string) (*Golden, error) { return goldenRun(dir, workload) }

// goldenRun replays run on a counting filesystem that records the path of
// every persist operation.
func goldenRun(dir string, run func(string, vfs.FS, *runState) error) (*Golden, error) {
	cfs := faultinject.New(vfs.OS())
	cfs.RecordPaths()
	var st runState
	if err := run(dir, cfs, &st); err != nil {
		return nil, err
	}
	g := &Golden{Fps: st.fps, Checkpoints: st.checkpoints, Commits: st.commits}
	for _, p := range cfs.OpPaths() {
		if rel, err := filepath.Rel(dir, p); err == nil {
			p = rel
		}
		g.OpPaths = append(g.OpPaths, filepath.ToSlash(p))
	}
	return g, nil
}

// RunPoint crashes the workload at the given persist operation, recovers
// from the frozen files, and checks every invariant.
func RunPoint(dir string, point int64, tear faultinject.TearMode, golden []string) Result {
	ffs := faultinject.New(vfs.OS())
	ffs.CrashAt(point, tear)
	var st runState
	// The workload is expected to fail (the crash surfaces as an error
	// somewhere); its own error is irrelevant — what matters is the durable
	// state it left behind and how far it got.
	_ = workload(dir, ffs, &st)

	res := Result{Point: point, Tear: tear, Completed: st.completed, Recovered: -1}
	res.Recovered, res.Err = recoverAndCheck(dir, golden, st.completed)
	return res
}

// recoverAndCheck re-opens the crashed database on the real filesystem and
// asserts the recovery invariants. It returns the number of committed
// transactions the recovered state corresponds to.
func recoverAndCheck(dir string, golden []string, completed int) (int, error) {
	db, err := h2tap.Open(h2tap.Options{PersistDir: dir})
	if err != nil {
		return -1, fmt.Errorf("recovery open: %w", err)
	}
	defer db.Close()

	// Committed prefix: every completed commit is durable (its log record
	// was written and synced before Commit returned), and at most the one
	// in-flight commit may additionally have reached the log.
	fp := Fingerprint(db.Store())
	m := -1
	for i, g := range golden {
		if g == fp {
			m = i
			break
		}
	}
	if m < 0 {
		return -1, errors.New("recovered state is not a committed prefix of the workload")
	}
	if m < completed || m > completed+1 {
		return m, fmt.Errorf("recovered %d committed transactions, want %d or %d", m, completed, completed+1)
	}
	return m, resumeService(db, dir, func(tx *h2tap.Tx) error {
		id, err := tx.AddNode("Probe", map[string]h2tap.Value{"m": h2tap.Int(int64(m))})
		if err == nil && m > 0 {
			// Node 0 exists from the first commit on and is never deleted.
			_, err = tx.AddRel(id, 0, "probe", 1)
		}
		return err
	})
}

// resumeService asserts that a recovered database serves again: the probe
// transaction commits, a propagation yields a replica equal to a CSR built
// fresh from the recovered graph, a checkpoint succeeds — also when the
// crash interrupted one mid-flight and left its temp file, which must not
// poison the new snapshot — and the probe survives a second restart that
// replays the checkpointed log. It closes db.
func resumeService(db *h2tap.DB, dir string, probe func(*h2tap.Tx) error) error {
	tx := db.Begin()
	if err := probe(tx); err != nil {
		tx.Abort()
		return fmt.Errorf("post-recovery insert: %w", err)
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("post-recovery commit: %w", err)
	}
	if _, err := db.Propagate(); err != nil {
		return fmt.Errorf("post-recovery propagation: %w", err)
	}
	if !csr.Equal(db.Engine().HostCSR(), csr.Build(db.Store(), db.SnapshotTS())) {
		return errors.New("post-recovery replica diverges from main graph")
	}
	if err := db.Checkpoint(); err != nil {
		return fmt.Errorf("post-recovery checkpoint: %w", err)
	}
	after := Fingerprint(db.Store())
	if err := db.Close(); err != nil {
		return fmt.Errorf("close after recovery: %w", err)
	}
	db2, err := h2tap.Open(h2tap.Options{PersistDir: dir})
	if err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	defer db2.Close()
	if Fingerprint(db2.Store()) != after {
		return errors.New("post-recovery commit lost across a second restart")
	}
	return nil
}

// Enumerate runs the golden workload, then crashes it at every persist
// point (or an evenly spaced sample of at most maxPerMode points per tear
// mode when maxPerMode > 0), for each tear mode in tears (default: TearAll
// and TearHalf, which together cover every boundary and torn state of the
// write-through crash model). Each crash gets a fresh directory under
// baseDir.
func Enumerate(baseDir string, maxPerMode int, tears []faultinject.TearMode) (*Report, error) {
	g, err := GoldenRun(filepath.Join(baseDir, "golden"))
	if err != nil {
		return nil, fmt.Errorf("crashtest: golden run: %w", err)
	}
	points := g.Points()
	if len(tears) == 0 {
		tears = []faultinject.TearMode{faultinject.TearAll, faultinject.TearHalf}
	}
	rep := &Report{Points: points}
	for _, tear := range tears {
		for _, p := range samplePoints(points, maxPerMode) {
			dir := filepath.Join(baseDir, fmt.Sprintf("p%04d-%s", p, tear))
			res := RunPoint(dir, p, tear, g.Fps)
			rep.Results = append(rep.Results, res)
			if res.Err != nil {
				rep.Failures++
			}
		}
	}
	return rep, nil
}

// samplePoints returns 1..n, or max evenly spaced points including both
// endpoints when 0 < max < n.
func samplePoints(n int64, max int) []int64 {
	if max <= 0 || int64(max) >= n {
		pts := make([]int64, 0, n)
		for p := int64(1); p <= n; p++ {
			pts = append(pts, p)
		}
		return pts
	}
	pts := make([]int64, 0, max)
	for i := 0; i < max; i++ {
		p := 1 + int64(i)*(n-1)/int64(max-1)
		if len(pts) == 0 || pts[len(pts)-1] != p {
			pts = append(pts, p)
		}
	}
	return pts
}
