package dyngraph

import (
	"math/rand"
	"reflect"
	"testing"

	"h2tap/internal/csr"
	"h2tap/internal/delta"
	"h2tap/internal/deltastore"
	"h2tap/internal/graph"
)

func smallCSR() *csr.CSR {
	// 0→{1,2}, 1→{2}, 2→{}, 3→{}
	return &csr.CSR{
		Off: []int64{0, 2, 3, 3, 3},
		Col: []uint64{1, 2, 2},
		Val: []float64{1, 2, 3},
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	c := smallCSR()
	g := FromCSR(c)
	if g.NumVertexSlots() != 4 || g.NumEdges() != 3 {
		t.Fatalf("dims = %d/%d", g.NumVertexSlots(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !csr.Equal(g.ToCSR(), c) {
		t.Fatal("CSR round trip mismatch")
	}
}

func TestRow(t *testing.T) {
	g := FromCSR(smallCSR())
	dst, w := g.Row(0)
	if !reflect.DeepEqual(dst, []uint64{1, 2}) || !reflect.DeepEqual(w, []float64{1, 2}) {
		t.Fatalf("row 0 = %v %v", dst, w)
	}
	// Empty, and out-of-range vertices: nil rows.
	for _, u := range []uint64{3, 77} {
		if dst, w := g.Row(u); dst != nil || w != nil {
			t.Fatalf("row %d = %v %v, want nil", u, dst, w)
		}
	}
}

func TestApplyBatchEdgeOps(t *testing.T) {
	g := FromCSR(smallCSR())
	st := g.ApplyBatch(&delta.Batch{Deltas: []delta.Combined{
		{Node: 0, Ins: []delta.Edge{{Dst: 3, W: 9}}, Del: []uint64{1}},
		{Node: 1, Del: []uint64{2}},
	}})
	if st.EdgeInserts != 1 || st.EdgeDeletes != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := &csr.CSR{
		Off: []int64{0, 2, 2, 2, 2},
		Col: []uint64{2, 3},
		Val: []float64{2, 9},
	}
	if !csr.Equal(g.ToCSR(), want) {
		t.Fatalf("after edge ops: %+v", g.ToCSR())
	}
}

func TestApplyBatchNodeOps(t *testing.T) {
	g := FromCSR(smallCSR())
	st := g.ApplyBatch(&delta.Batch{Deltas: []delta.Combined{
		{Node: 2, Deleted: true},
		{Node: 6, Inserted: true, Ins: []delta.Edge{{Dst: 0, W: 5}}},
	}})
	if st.NodeInserts != 1 || st.NodeDeletes != 1 || st.Ops() != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if dst, _ := g.Row(2); dst != nil {
		t.Fatal("deleted vertex has edges")
	}
	if dst, w := g.Row(6); len(dst) != 1 || dst[0] != 0 || w[0] != 5 {
		t.Fatal("inserted vertex missing")
	}
	// Gap slots 4, 5 are empty rows.
	if g.NumVertexSlots() != 7 {
		t.Fatalf("slots = %d, want 7", g.NumVertexSlots())
	}
	for _, gap := range []uint64{4, 5} {
		if dst, _ := g.Row(gap); dst != nil {
			t.Fatalf("gap slot %d has edges", gap)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBatchWeightOverwrite(t *testing.T) {
	g := FromCSR(smallCSR())
	g.ApplyBatch(&delta.Batch{Deltas: []delta.Combined{
		{Node: 0, Ins: []delta.Edge{{Dst: 1, W: 42}}},
	}})
	if g.NumEdges() != 3 {
		t.Fatalf("overwrite changed edge count: %d", g.NumEdges())
	}
	if dst, w := g.Row(0); dst[0] != 1 || w[0] != 42 {
		t.Fatalf("row 0 = %v %v", dst, w)
	}
}

// Static and dynamic propagation paths must agree: applying a batch to the
// dynamic structure equals merging it into the CSR (both driven by real
// transactions through the delta store).
func TestDynamicMatchesStaticPath(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s := graph.NewStore()
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
		static := csr.Build(s, loadTS)
		dynamic := FromCSR(static)

		r := rand.New(rand.NewSource(seed))
		for cycle := 0; cycle < 5; cycle++ {
			for q := 0; q < 50; q++ {
				tx := s.Begin()
				a := uint64(r.Intn(int(s.NumNodeSlots())))
				var opErr error
				switch r.Intn(8) {
				case 0, 1, 2, 3:
					_, opErr = tx.AddRel(a, uint64(r.Intn(int(s.NumNodeSlots()))), "k", float64(r.Intn(9)+1))
				case 4, 5:
					id, _ := tx.AddNode("P", nil)
					_, opErr = tx.AddRel(a, id, "k", 1)
				case 6:
					rels, err := tx.OutRels(a)
					if err == nil && len(rels) > 0 {
						opErr = tx.DeleteRel(rels[r.Intn(len(rels))].ID)
					} else {
						opErr = err
						if opErr == nil {
							tx.Abort()
							continue
						}
					}
				case 7:
					opErr = tx.DeleteNode(a)
				}
				if opErr != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
			}
			tp := s.Oracle().Begin()
			batch := store.Scan(tp.TS())
			tp.Commit()

			var merged *csr.CSR
			merged, _ = csr.Merge(static, batch)
			dynamic.ApplyBatch(batch)
			if err := dynamic.Validate(); err != nil {
				t.Fatalf("seed %d cycle %d: %v", seed, cycle, err)
			}
			if !csr.Equal(dynamic.ToCSR(), merged) {
				t.Fatalf("seed %d cycle %d: dynamic and static replicas diverged", seed, cycle)
			}
			static = merged
		}
	}
}
