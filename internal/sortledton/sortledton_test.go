package sortledton

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"h2tap/internal/analytics"
	"h2tap/internal/csr"
	"h2tap/internal/delta"
)

func smallCSR() *csr.CSR {
	return &csr.CSR{
		Off: []int64{0, 2, 3, 3},
		Col: []uint64{1, 2, 2},
		Val: []float64{1, 2, 3},
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	c := smallCSR()
	s := FromCSR(c)
	if !csr.Equal(s.ToCSR(), c) {
		t.Fatal("round trip mismatch")
	}
	if s.NumEdges() != 3 || s.NumVertexSlots() != 3 {
		t.Fatalf("dims %d/%d", s.NumVertexSlots(), s.NumEdges())
	}
}

func TestInsertKeepsSorted(t *testing.T) {
	s := New()
	s.InsertVertex(0)
	for _, dst := range []uint64{5, 1, 9, 3, 7} {
		s.InsertEdge(0, dst, float64(dst))
	}
	got, ws := s.Row(0)
	for i, dst := range got {
		if ws[i] != float64(dst) {
			t.Fatalf("weight mismatch on %d: %v", dst, ws[i])
		}
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("neighborhood not sorted: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("degree = %d", len(got))
	}
}

func TestInsertExistingUpdatesWeight(t *testing.T) {
	s := New()
	s.InsertEdge(0, 1, 1)
	s.InsertEdge(0, 1, 9)
	if dst, w := s.Row(0); len(dst) != 1 || w[0] != 9 {
		t.Fatalf("row 0 = %v %v", dst, w)
	}
}

func TestDeleteEdgeAndVertex(t *testing.T) {
	s := FromCSR(smallCSR())
	s.DeleteEdge(0, 1)
	if dst, _ := s.Row(0); len(dst) != 1 {
		t.Fatalf("degree after delete = %d", len(dst))
	}
	s.DeleteEdge(0, 77) // missing: no-op
	s.DeleteVertex(1)
	if s.HasVertex(1) {
		t.Fatal("vertex survived delete")
	}
	if dst, _ := s.Row(1); dst != nil {
		t.Fatal("deleted vertex has edges")
	}
}

func TestApplyBatchMatchesCSRMerge(t *testing.T) {
	base := smallCSR()
	s := FromCSR(base)
	batch := &delta.Batch{Deltas: []delta.Combined{
		{Node: 0, Ins: []delta.Edge{{Dst: 0, W: 7}}, Del: []uint64{2}},
		{Node: 2, Deleted: true},
		{Node: 4, Inserted: true, Ins: []delta.Edge{{Dst: 1, W: 3}}},
	}}
	s.ApplyBatch(batch)
	merged, _ := csr.Merge(base, batch)
	if !csr.Equal(s.ToCSR(), merged) {
		t.Fatalf("sortledton after batch = %+v, csr merge = %+v", s.ToCSR(), merged)
	}
}

func TestAnalyticsInterfaceAgreesWithCSR(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	c := &csr.CSR{Off: make([]int64, 201)}
	for u := 0; u < 200; u++ {
		used := map[uint64]bool{}
		for k := 0; k < r.Intn(5); k++ {
			v := uint64(r.Intn(200))
			if !used[v] {
				used[v] = true
			}
		}
		var cols []uint64
		for v := range used {
			cols = append(cols, v)
		}
		sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
		for _, v := range cols {
			c.Col = append(c.Col, v)
			c.Val = append(c.Val, 1)
		}
		c.Off[u+1] = int64(len(c.Col))
	}
	s := FromCSR(c)
	l1, _ := analytics.BFS(analytics.CSRGraph{C: c}, 0)
	l2, _ := analytics.BFS(s, 0)
	if !reflect.DeepEqual(l1, l2) {
		t.Fatal("BFS differs between CSR and sortledton")
	}
}

// The §6.7 scenario: analytics and updates run concurrently on the same
// instance without corruption.
func TestConcurrentUpdatesAndAnalytics(t *testing.T) {
	c := smallCSR()
	s := FromCSR(c)
	for i := 3; i < 64; i++ {
		s.InsertVertex(uint64(i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // updater
		defer wg.Done()
		r := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src, dst := uint64(r.Intn(64)), uint64(r.Intn(64))
			if i%3 == 0 {
				s.DeleteEdge(src, dst)
			} else {
				s.InsertEdge(src, dst, 1)
			}
		}
	}()
	for k := 0; k < 20; k++ {
		levels, _ := analytics.BFS(s, 0)
		if levels[0] != 0 {
			t.Fatal("BFS source level corrupted")
		}
		analytics.PageRank(s, 2, 0.85)
	}
	close(stop)
	wg.Wait()
	// Post-quiesce invariant: all neighborhoods sorted and duplicate-free.
	snapshot := s.ToCSR()
	if err := snapshot.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAbsentVertexQueries(t *testing.T) {
	s := New()
	if dst, w := s.Row(5); s.HasVertex(5) || dst != nil || w != nil {
		t.Fatal("phantom vertex")
	}
	s.DeleteEdge(5, 6) // no-op
	s.DeleteVertex(99) // absent slot
	if s.HasVertex(99) || s.NumVertexSlots() != 100 {
		t.Fatalf("deleted slot: present %v, %d slots", s.HasVertex(99), s.NumVertexSlots())
	}
	s.InsertEdge(5, 6, 1) // auto-creates
	if dst, _ := s.Row(5); !s.HasVertex(5) || len(dst) != 1 {
		t.Fatal("auto-create on edge insert failed")
	}
}
