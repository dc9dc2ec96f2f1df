package csr

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"h2tap/internal/delta"
	"h2tap/internal/deltastore"
	"h2tap/internal/graph"
	"h2tap/internal/mvto"
	"h2tap/internal/pmem"
	"h2tap/internal/sim"
)

// buildSmall loads a small fixed graph:
//
//	0 → 1 (w1), 0 → 2 (w2), 1 → 2 (w3), 3 isolated
func buildSmall(t *testing.T) (*graph.Store, mvto.TS) {
	t.Helper()
	s := graph.NewStore()
	ts, err := s.BulkLoad(
		[]graph.NodeSpec{{Label: "A"}, {Label: "A"}, {Label: "A"}, {Label: "A"}},
		[]graph.EdgeSpec{
			{Src: 0, Dst: 2, Weight: 2},
			{Src: 0, Dst: 1, Weight: 1},
			{Src: 1, Dst: 2, Weight: 3},
		})
	if err != nil {
		t.Fatal(err)
	}
	return s, ts
}

func TestBuildBasic(t *testing.T) {
	s, ts := buildSmall(t)
	c := Build(s, ts)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 4 || c.NumEdges() != 3 {
		t.Fatalf("dims = %d nodes, %d edges", c.NumNodes(), c.NumEdges())
	}
	col, val := c.Row(0)
	if len(col) != 2 || col[0] != 1 || col[1] != 2 || val[0] != 1 || val[1] != 2 {
		t.Fatalf("row 0 = %v %v", col, val)
	}
	for u, want := range map[uint64]int{1: 1, 3: 0, 99: 0} {
		if col, _ := c.Row(u); len(col) != want {
			t.Fatalf("row %d has %d edges, want %d", u, len(col), want)
		}
	}
	if c.Bytes() != int64(5*8+3*8+3*8) {
		t.Fatalf("Bytes = %d", c.Bytes())
	}
}

func TestCopyIsDeep(t *testing.T) {
	s, ts := buildSmall(t)
	c := Build(s, ts)
	cp := c.Copy()
	if !Equal(c, cp) {
		t.Fatal("copy differs")
	}
	cp.Col[0] = 999
	if c.Col[0] == 999 {
		t.Fatal("copy aliases original")
	}
}

func batchOf(deltas ...delta.Combined) *delta.Batch {
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Node < deltas[j].Node })
	return &delta.Batch{Deltas: deltas}
}

func TestMergeInsertEdge(t *testing.T) {
	s, ts := buildSmall(t)
	old := Build(s, ts)
	merged, st := Merge(old, batchOf(
		delta.Combined{Node: 1, Ins: []delta.Edge{{Dst: 0, W: 9}, {Dst: 3, W: 7}}},
	))
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	col, val := merged.Row(1)
	if len(col) != 3 || col[0] != 0 || col[1] != 2 || col[2] != 3 {
		t.Fatalf("row 1 = %v", col)
	}
	if val[0] != 9 || val[1] != 3 || val[2] != 7 {
		t.Fatalf("row 1 vals = %v", val)
	}
	// Rows 0, 2, 3 copied untouched.
	if st.RowsModified != 1 || st.RowsCopied != 3 || st.RowsAdded != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if c0, _ := merged.Row(0); len(c0) != 2 {
		t.Fatalf("row 0 corrupted: %v", c0)
	}
}

func TestMergeDeleteEdgeAndNode(t *testing.T) {
	s, ts := buildSmall(t)
	old := Build(s, ts)
	merged, _ := Merge(old, batchOf(
		delta.Combined{Node: 0, Del: []uint64{1}},
		delta.Combined{Node: 1, Deleted: true},
	))
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	if col, _ := merged.Row(0); len(col) != 1 || col[0] != 2 {
		t.Fatalf("row 0 after delete = %v", col)
	}
	if col, _ := merged.Row(1); len(col) != 0 {
		t.Fatalf("deleted node row = %v", col)
	}
}

func TestMergeNewNodesWithGap(t *testing.T) {
	s, ts := buildSmall(t)
	old := Build(s, ts)
	// Node 6 inserted; 4 and 5 are gaps (e.g. aborted inserts).
	merged, st := Merge(old, batchOf(
		delta.Combined{Node: 6, Inserted: true, Ins: []delta.Edge{{Dst: 0, W: 4}}},
	))
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	if merged.NumNodes() != 7 {
		t.Fatalf("NumNodes = %d, want 7", merged.NumNodes())
	}
	for _, gap := range []uint64{4, 5} {
		if col, _ := merged.Row(gap); len(col) != 0 {
			t.Fatalf("gap node %d has edges", gap)
		}
	}
	if col, _ := merged.Row(6); len(col) != 1 || col[0] != 0 {
		t.Fatalf("new node row = %v", col)
	}
	if st.RowsAdded != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMergeWeightOverwrite(t *testing.T) {
	s, ts := buildSmall(t)
	old := Build(s, ts)
	// Delete + reinsert with a new weight combined into a bare insert of an
	// existing destination: the weight must be replaced, not duplicated.
	merged, _ := Merge(old, batchOf(
		delta.Combined{Node: 0, Ins: []delta.Edge{{Dst: 2, W: 42}}},
	))
	col, val := merged.Row(0)
	if len(col) != 2 || col[1] != 2 || val[1] != 42 {
		t.Fatalf("row 0 = %v %v", col, val)
	}
}

func TestMergeEmptyBatch(t *testing.T) {
	s, ts := buildSmall(t)
	old := Build(s, ts)
	merged, st := Merge(old, &delta.Batch{})
	if !Equal(old, merged) {
		t.Fatal("empty merge changed the CSR")
	}
	if st.RowsModified != 0 || st.EdgesMerged != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMergeDeleteMissingEdgeIsNoop(t *testing.T) {
	s, ts := buildSmall(t)
	old := Build(s, ts)
	merged, _ := Merge(old, batchOf(
		delta.Combined{Node: 0, Del: []uint64{77}},
	))
	if !Equal(old, merged) {
		t.Fatal("deleting a non-existent edge changed the CSR")
	}
}

func TestEqualToleratesTrailingEmptyRows(t *testing.T) {
	a := &CSR{Off: []int64{0, 1}, Col: []uint64{0}, Val: []float64{1}}
	b := &CSR{Off: []int64{0, 1, 1, 1}, Col: []uint64{0}, Val: []float64{1}}
	if !Equal(a, b) {
		t.Fatal("trailing empty rows should compare equal")
	}
	c := &CSR{Off: []int64{0, 1, 2}, Col: []uint64{0, 0}, Val: []float64{1, 1}}
	if Equal(a, c) {
		t.Fatal("different graphs compared equal")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := &CSR{Off: []int64{0, 2}, Col: []uint64{1, 2}, Val: []float64{1, 1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &CSR{Off: []int64{0, 2}, Col: []uint64{2, 1}, Val: []float64{1, 1}}
	if bad.Validate() == nil {
		t.Fatal("unsorted row not caught")
	}
	bad2 := &CSR{Off: []int64{0, 3}, Col: []uint64{1, 2}, Val: []float64{1, 1}}
	if bad2.Validate() == nil {
		t.Fatal("length mismatch not caught")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	s, ts := buildSmall(t)
	c := Build(s, ts)
	pool, err := pmem.Create(filepath.Join(t.TempDir(), "csr.pool"), 1<<20, sim.DefaultPMem())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.ResetSimTime()
	off, err := PersistTo(pool, c)
	if err != nil {
		t.Fatal(err)
	}
	if pool.SimTime() <= 0 {
		t.Fatal("persistent copy charged no media time")
	}
	got, err := LoadPersistent(pool, off)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(c, got) {
		t.Fatal("persistent round trip lost data")
	}
}

// The core §5 consistency invariant: merging scan batches into the old CSR
// must produce exactly the CSR a full rebuild would produce, across
// multiple propagation cycles of a random transactional workload.
func TestMergeEqualsRebuildOverRandomWorkload(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s := graph.NewStore()
		store := deltastore.NewVolatile()
		s.AddCapturer(store)

		specs := make([]graph.NodeSpec, 24)
		for i := range specs {
			specs[i] = graph.NodeSpec{Label: "Person"}
		}
		loadTS, err := s.BulkLoad(specs, []graph.EdgeSpec{
			{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		replica := Build(s, loadTS)

		r := rand.New(rand.NewSource(seed))
		for cycle := 0; cycle < 6; cycle++ {
			for q := 0; q < 60; q++ {
				tx := s.Begin()
				a := uint64(r.Intn(int(s.NumNodeSlots())))
				b := uint64(r.Intn(int(s.NumNodeSlots())))
				var opErr error
				switch r.Intn(10) {
				case 0, 1, 2, 3, 4:
					_, opErr = tx.AddRel(a, b, "knows", float64(r.Intn(50)+1))
				case 5, 6:
					id, _ := tx.AddNode("Person", nil)
					_, opErr = tx.AddRel(a, id, "knows", 1)
				case 7, 8:
					rels, err := tx.OutRels(a)
					if err != nil || len(rels) == 0 {
						opErr = err
						if opErr == nil {
							tx.Abort()
							continue
						}
					} else {
						opErr = tx.DeleteRel(rels[r.Intn(len(rels))].ID)
					}
				case 9:
					opErr = tx.DeleteNode(a)
				}
				if opErr != nil {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			// Propagation: scan + merge, then compare with a full rebuild
			// at the same snapshot.
			tp := s.Oracle().Begin()
			batch := store.Scan(tp.TS())
			merged, _ := Merge(replica, batch)
			if err := merged.Validate(); err != nil {
				t.Fatalf("seed %d cycle %d: merged CSR invalid: %v", seed, cycle, err)
			}
			rebuilt := Build(s, tp.TS()-1) // snapshot of all commits < tp
			if !Equal(merged, rebuilt) {
				t.Fatalf("seed %d cycle %d: merge != rebuild", seed, cycle)
			}
			tp.Commit()
			replica = merged
		}
	}
}

// The consistency invariant also holds for undirected stores (§5.1's
// two-delta encoding): both endpoint rows stay in sync through merges.
func TestMergeEqualsRebuildUndirected(t *testing.T) {
	s := graph.NewUndirectedStore()
	store := deltastore.NewVolatile()
	s.AddCapturer(store)
	specs := make([]graph.NodeSpec, 20)
	for i := range specs {
		specs[i] = graph.NodeSpec{Label: "P"}
	}
	loadTS, err := s.BulkLoad(specs, []graph.EdgeSpec{{Src: 0, Dst: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	replica := Build(s, loadTS)

	r := rand.New(rand.NewSource(5))
	for cycle := 0; cycle < 5; cycle++ {
		for q := 0; q < 60; q++ {
			tx := s.Begin()
			a := uint64(r.Intn(int(s.NumNodeSlots())))
			b := uint64(r.Intn(int(s.NumNodeSlots())))
			var err error
			switch r.Intn(8) {
			case 0, 1, 2, 3:
				_, err = tx.AddRel(a, b, "k", float64(r.Intn(9)+1))
			case 4, 5:
				id, _ := tx.AddNode("P", nil)
				_, err = tx.AddRel(a, id, "k", 1)
			case 6:
				rels, oerr := tx.OutRels(a)
				if oerr != nil || len(rels) == 0 {
					tx.Abort()
					continue
				}
				err = tx.DeleteRel(rels[r.Intn(len(rels))].ID)
			case 7:
				err = tx.DeleteNode(a)
			}
			if err != nil {
				tx.Abort()
				continue
			}
			tx.Commit()
		}
		tp := s.Oracle().Begin()
		batch := store.Scan(tp.TS())
		merged, _ := Merge(replica, batch)
		rebuilt := Build(s, tp.TS()-1)
		tp.Commit()
		if err := merged.Validate(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if !Equal(merged, rebuilt) {
			t.Fatalf("cycle %d: undirected merge != rebuild", cycle)
		}
		replica = merged
	}
}

// Reference merge: rebuild each row from a map model. Used by the quick
// check below.
func refMerge(old *CSR, batch *delta.Batch) *CSR {
	type row map[uint64]float64
	n := uint64(old.NumNodes())
	for _, d := range batch.Deltas {
		if d.Node >= n {
			n = d.Node + 1
		}
	}
	rows := make([]row, n)
	for u := uint64(0); u < uint64(old.NumNodes()); u++ {
		rows[u] = row{}
		col, val := old.Row(u)
		for i := range col {
			rows[u][col[i]] = val[i]
		}
	}
	for i := range rows {
		if rows[i] == nil {
			rows[i] = row{}
		}
	}
	for _, d := range batch.Deltas {
		if d.Deleted {
			rows[d.Node] = row{}
			continue
		}
		for _, dst := range d.Del {
			delete(rows[d.Node], dst)
		}
		for _, e := range d.Ins {
			rows[d.Node][e.Dst] = e.W
		}
	}
	out := &CSR{Off: make([]int64, n+1)}
	for u := uint64(0); u < n; u++ {
		cols := make([]uint64, 0, len(rows[u]))
		for dst := range rows[u] {
			cols = append(cols, dst)
		}
		sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
		for _, dst := range cols {
			out.Col = append(out.Col, dst)
			out.Val = append(out.Val, rows[u][dst])
		}
		out.Off[u+1] = int64(len(out.Col))
	}
	return out
}

func TestMergeMatchesReferenceOnRandomInputs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		// Random old CSR over 12 nodes.
		const n = 12
		old := &CSR{Off: make([]int64, n+1)}
		for u := 0; u < n; u++ {
			deg := r.Intn(5)
			used := map[uint64]bool{}
			var cols []uint64
			for len(cols) < deg {
				c := uint64(r.Intn(n))
				if !used[c] {
					used[c] = true
					cols = append(cols, c)
				}
			}
			sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
			for _, c := range cols {
				old.Col = append(old.Col, c)
				old.Val = append(old.Val, float64(r.Intn(9)+1))
			}
			old.Off[u+1] = int64(len(old.Col))
		}

		// Random batch over nodes 0..n+3.
		var deltas []delta.Combined
		touched := map[uint64]bool{}
		for k := 0; k < 6; k++ {
			node := uint64(r.Intn(n + 4))
			if touched[node] {
				continue
			}
			touched[node] = true
			d := delta.Combined{Node: node}
			switch r.Intn(4) {
			case 0:
				d.Deleted = true
			case 1, 2:
				used := map[uint64]bool{}
				for x := 0; x < r.Intn(4)+1; x++ {
					dst := uint64(r.Intn(n))
					if !used[dst] {
						used[dst] = true
						d.Ins = append(d.Ins, delta.Edge{Dst: dst, W: float64(r.Intn(9) + 1)})
					}
				}
				sort.Slice(d.Ins, func(i, j int) bool { return d.Ins[i].Dst < d.Ins[j].Dst })
			case 3:
				used := map[uint64]bool{}
				for x := 0; x < r.Intn(4)+1; x++ {
					dst := uint64(r.Intn(n))
					if !used[dst] {
						used[dst] = true
						d.Del = append(d.Del, dst)
					}
				}
				sort.Slice(d.Del, func(i, j int) bool { return d.Del[i] < d.Del[j] })
			}
			if node >= n && !d.Deleted {
				d.Inserted = true
				d.Del = nil
			}
			deltas = append(deltas, d)
		}
		batch := batchOf(deltas...)
		got, _ := Merge(old, batch)
		if err := got.Validate(); err != nil {
			t.Fatalf("iter %d: merged invalid: %v", iter, err)
		}
		want := refMerge(old, batch)
		if !Equal(got, want) {
			t.Fatalf("iter %d: merge differs from reference\nold: %+v\nbatch: %+v", iter, old, batch.Deltas)
		}
	}
}
