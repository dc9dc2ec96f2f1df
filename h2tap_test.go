package h2tap

import (
	"math"
	"os"
	"testing"
)

func TestOpenQuickstartFlow(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	tx := db.Begin()
	a, err := tx.AddNode("Person", map[string]Value{"name": Str("alice")})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := tx.AddNode("Person", map[string]Value{"name": Str("bob")})
	c, _ := tx.AddNode("Person", map[string]Value{"name": Str("carol")})
	tx.AddRel(a, b, "knows", 1)
	tx.AddRel(b, c, "knows", 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	res, err := db.RunAnalytics(BFS, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels[c] != 2 {
		t.Fatalf("BFS level of carol = %d, want 2", res.Levels[c])
	}
	st := db.Stats()
	if st.LiveNodes != 3 || st.LiveRels != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBulkLoadAndAnalytics(t *testing.T) {
	db, err := Open(Options{Replica: DynamicHash})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	nodes := make([]NodeSpec, 10)
	for i := range nodes {
		nodes[i] = NodeSpec{Label: "V"}
	}
	var edges []EdgeSpec
	for i := 0; i < 9; i++ {
		edges = append(edges, EdgeSpec{Src: uint64(i), Dst: uint64(i + 1), Weight: 2})
	}
	if err := db.BulkLoad(nodes, edges); err != nil {
		t.Fatal(err)
	}
	res, err := db.RunAnalytics(SSSP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dists[9] != 18 {
		t.Fatalf("SSSP to node 9 = %v, want 18", res.Dists[9])
	}
}

func TestDeltasBeforeEngineStartNotReapplied(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Insert and then delete an edge BEFORE the engine starts; the replica
	// must not resurrect it (the pre-engine deltas are discarded because
	// the initial build covers them).
	tx := db.Begin()
	a, _ := tx.AddNode("P", nil)
	b, _ := tx.AddNode("P", nil)
	rid, _ := tx.AddRel(a, b, "knows", 1)
	tx.Commit()

	if err := db.StartEngine(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	if err := tx2.DeleteRel(rid); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	res, err := db.RunAnalytics(BFS, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels[b] != -1 {
		t.Fatalf("deleted edge resurrected: level[b] = %d", res.Levels[b])
	}
}

func TestPersistentOptions(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	a, _ := tx.AddNode("P", nil)
	b, _ := tx.AddNode("P", nil)
	tx.AddRel(a, b, "knows", 1)
	tx.Commit()
	if _, err := db.RunAnalytics(PageRank, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelOption(t *testing.T) {
	db, err := Open(Options{EnableCostModel: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	nodes := make([]NodeSpec, 200)
	for i := range nodes {
		nodes[i] = NodeSpec{Label: "V"}
	}
	var edges []EdgeSpec
	for i := 0; i < 199; i++ {
		edges = append(edges, EdgeSpec{Src: uint64(i), Dst: uint64(i + 1), Weight: 1})
	}
	if err := db.BulkLoad(nodes, edges); err != nil {
		t.Fatal(err)
	}
	if err := db.StartEngine(); err != nil {
		t.Fatal(err)
	}
	// The calibrated threshold should be installed (non-zero or explicitly
	// "never": both acceptable — just not left at the unset default 0
	// while claiming cost-model mode).
	if db.DeltaStore().Threshold() == 0 {
		t.Fatal("cost model enabled but no threshold installed")
	}
}

func TestSubmitQueue(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	nodes := make([]NodeSpec, 50)
	for i := range nodes {
		nodes[i] = NodeSpec{Label: "V"}
	}
	var edges []EdgeSpec
	for i := 0; i < 49; i++ {
		edges = append(edges, EdgeSpec{Src: uint64(i), Dst: uint64(i + 1), Weight: 1})
	}
	db.BulkLoad(nodes, edges)

	t1, err := db.Submit(PageRank, 0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := db.Submit(WCC, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := t1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := t2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range r1.Ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rank sum = %v", sum)
	}
	if r2.Comp[0] != r2.Comp[49] {
		t.Fatal("chain should be one component")
	}
}

func TestPersistDirReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	a, _ := tx.AddNode("P", nil)
	b, _ := tx.AddNode("P", nil)
	tx.AddRel(a, b, "knows", 1)
	tx.Commit()
	recs := db.Stats().DeltaRecords
	if recs == 0 {
		t.Fatal("no delta records captured")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the graph comes back from the WAL and the delta store starts
	// empty — the first replica build covers the replayed graph.
	db2, err := Open(Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Stats().DeltaRecords; got != 0 {
		t.Fatalf("reopened delta store holds %d records, want 0", got)
	}
	res, err := db2.RunAnalytics(BFS, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels[a] != 0 || res.Levels[b] != 1 {
		t.Fatalf("BFS after reopen = %v, want a at level 0 and b at 1", res.Levels)
	}
}

func TestFullDurabilityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	a, _ := tx.AddNode("Person", map[string]Value{"name": Str("ada")})
	b, _ := tx.AddNode("Person", map[string]Value{"name": Str("bob")})
	tx.AddRel(a, b, "knows", 2)
	tx.Commit()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the main graph recovers from the WAL; analytics work
	// immediately on the recovered state.
	db2, err := Open(Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st := db2.Stats()
	if st.LiveNodes != 2 || st.LiveRels != 1 {
		t.Fatalf("recovered graph = %d/%d", st.LiveNodes, st.LiveRels)
	}
	res, err := db2.RunAnalytics(BFS, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels[b] != 1 {
		t.Fatalf("recovered BFS = %v", res.Levels)
	}
	// And new transactions keep flowing into the recovered WAL.
	tx2 := db2.Begin()
	c, _ := tx2.AddNode("Person", nil)
	if _, err := tx2.AddRel(b, c, "knows", 1); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if db2.Stats().LiveNodes != 3 {
		t.Fatal("post-recovery commit lost")
	}
}

func TestCheckpointThroughFacade(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Churn, then checkpoint, then one more commit, then restart.
	tx := db.Begin()
	a, _ := tx.AddNode("P", nil)
	b, _ := tx.AddNode("P", nil)
	tx.Commit()
	for i := 0; i < 50; i++ {
		tx := db.Begin()
		rid, _ := tx.AddRel(a, b, "k", 1)
		tx.Commit()
		tx2 := db.Begin()
		tx2.DeleteRel(rid)
		tx2.Commit()
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx3 := db.Begin()
	if _, err := tx3.AddRel(a, b, "k", 7); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st := db2.Stats()
	if st.LiveNodes != 2 || st.LiveRels != 1 {
		t.Fatalf("post-checkpoint recovery = %d/%d", st.LiveNodes, st.LiveRels)
	}
}

func TestUndirectedOption(t *testing.T) {
	db, err := Open(Options{Undirected: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx := db.Begin()
	a, _ := tx.AddNode("P", nil)
	b, _ := tx.AddNode("P", nil)
	tx.AddRel(a, b, "knows", 1)
	tx.Commit()
	// BFS reaches b from a AND a from b.
	r1, err := db.RunAnalytics(BFS, a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.RunAnalytics(BFS, b)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Levels[b] != 1 || r2.Levels[a] != 1 {
		t.Fatalf("undirected reachability broken: %v / %v", r1.Levels, r2.Levels)
	}
}

func TestOpenBadPersistDir(t *testing.T) {
	// A file where the directory should be: MkdirAll fails.
	dir := t.TempDir()
	blocker := dir + "/blocked"
	if err := osWriteFile(blocker, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{PersistDir: blocker + "/sub"}); err == nil {
		t.Fatal("Open with unusable persist dir succeeded")
	}
}

func TestStatsAndAccessors(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.LastCommitted() != 0 {
		t.Fatal("fresh DB has commits")
	}
	tx := db.Begin()
	tx.AddNode("P", nil)
	tx.Commit()
	if db.LastCommitted() == 0 {
		t.Fatal("LastCommitted not advanced")
	}
	if db.SnapshotTS() == 0 {
		t.Fatal("SnapshotTS zero")
	}
	if db.Store() == nil || db.DeltaStore() == nil {
		t.Fatal("accessors nil")
	}
	if db.Engine() != nil {
		t.Fatal("engine exists before StartEngine")
	}
	if err := db.StartEngine(); err != nil {
		t.Fatal(err)
	}
	if db.Engine() == nil {
		t.Fatal("engine nil after StartEngine")
	}
	st := db.Stats()
	if st.ReplicaTS == 0 || st.DeviceMemUsed == 0 {
		t.Fatalf("engine stats not populated: %+v", st)
	}
	// Checkpoint without PersistDir is a no-op.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestPropagateThroughFacade(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx := db.Begin()
	a, _ := tx.AddNode("P", nil)
	b, _ := tx.AddNode("P", nil)
	tx.Commit()
	if err := db.StartEngine(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	tx2.AddRel(a, b, "k", 1)
	tx2.Commit()
	rep, err := db.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records == 0 {
		t.Fatalf("propagation consumed nothing: %+v", rep)
	}
}

func osWriteFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

func TestValueConstructors(t *testing.T) {
	if Int(3).AsInt() != 3 || Float(2.5).AsFloat() != 2.5 ||
		Str("x").AsString() != "x" || !Bool(true).AsBool() {
		t.Fatal("re-exported constructors broken")
	}
}
