package analytics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"h2tap/internal/csr"
	"h2tap/internal/delta"
	"h2tap/internal/dyngraph"
	"h2tap/internal/sortledton"
)

// chain: 0→1→2→3, plus 4 isolated.
func chainCSR() *csr.CSR {
	return &csr.CSR{
		Off: []int64{0, 1, 2, 3, 3, 3},
		Col: []uint64{1, 2, 3},
		Val: []float64{1, 2, 3},
	}
}

// diamond: 0→1 (w1), 0→2 (w4), 1→3 (w1), 2→3 (w1)
func diamondCSR() *csr.CSR {
	return &csr.CSR{
		Off: []int64{0, 2, 3, 4, 4},
		Col: []uint64{1, 2, 3, 3},
		Val: []float64{1, 4, 1, 1},
	}
}

func TestBFSChain(t *testing.T) {
	levels, st := BFS(CSRGraph{chainCSR()}, 0)
	want := []int32{0, 1, 2, 3, Unreachable}
	if !reflect.DeepEqual(levels, want) {
		t.Fatalf("levels = %v, want %v", levels, want)
	}
	if st.Edges != 3 || st.Iterations != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBFSFromMiddleAndOutOfRange(t *testing.T) {
	levels, _ := BFS(CSRGraph{chainCSR()}, 2)
	if levels[0] != Unreachable || levels[2] != 0 || levels[3] != 1 {
		t.Fatalf("levels = %v", levels)
	}
	levels, st := BFS(CSRGraph{chainCSR()}, 99)
	for _, l := range levels {
		if l != Unreachable {
			t.Fatalf("out-of-range source reached something: %v", levels)
		}
	}
	if st.Edges != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSSSPDiamond(t *testing.T) {
	dists, st := SSSP(CSRGraph{diamondCSR()}, 0)
	want := []float64{0, 1, 4, 2}
	if !reflect.DeepEqual(dists, want) {
		t.Fatalf("dists = %v, want %v", dists, want)
	}
	if st.Edges < 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSSSPUnreachableIsInf(t *testing.T) {
	dists, _ := SSSP(CSRGraph{chainCSR()}, 0)
	if !math.IsInf(dists[4], 1) {
		t.Fatalf("isolated node dist = %v", dists[4])
	}
}

func TestSSSPNegativeWeightPanics(t *testing.T) {
	bad := &csr.CSR{Off: []int64{0, 1, 1}, Col: []uint64{1}, Val: []float64{-1}}
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	SSSP(CSRGraph{bad}, 0)
}

func TestPageRankSumsToOne(t *testing.T) {
	for _, c := range []*csr.CSR{chainCSR(), diamondCSR()} {
		ranks, st := PageRank(CSRGraph{c}, 10, 0.85)
		var sum float64
		for _, r := range ranks {
			sum += r
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("rank sum = %v", sum)
		}
		if st.Iterations != 10 {
			t.Fatalf("stats = %+v", st)
		}
	}
}

func TestPageRankOrdering(t *testing.T) {
	// In the diamond, node 3 receives from two paths and should outrank
	// nodes 1 and 2.
	ranks, _ := PageRank(CSRGraph{diamondCSR()}, 30, 0.85)
	if !(ranks[3] > ranks[1] && ranks[3] > ranks[2]) {
		t.Fatalf("ranks = %v", ranks)
	}
}

func TestWCC(t *testing.T) {
	// Components: {0,1,2,3} via chain, {4} isolated.
	comp, st := WCC(CSRGraph{chainCSR()})
	if comp[0] != comp[3] || comp[0] != 0 {
		t.Fatalf("chain components = %v", comp)
	}
	if comp[4] != 4 {
		t.Fatalf("isolated component = %v", comp[4])
	}
	if st.Edges != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Direction must not matter: reverse edge graph gives same partition.
	rev := &csr.CSR{Off: []int64{0, 0, 1, 2, 3, 3}, Col: []uint64{0, 1, 2}, Val: []float64{1, 1, 1}}
	comp2, _ := WCC(CSRGraph{rev})
	if comp2[0] != comp2[3] {
		t.Fatalf("reversed chain components = %v", comp2)
	}
}

// randomCSR builds a random simple graph for cross-implementation checks.
func randomCSR(seed int64, n, avgDeg int) *csr.CSR {
	r := rand.New(rand.NewSource(seed))
	c := &csr.CSR{Off: make([]int64, n+1)}
	for u := 0; u < n; u++ {
		deg := r.Intn(avgDeg * 2)
		used := map[uint64]bool{}
		var cols []uint64
		for len(cols) < deg {
			v := uint64(r.Intn(n))
			if !used[v] {
				used[v] = true
				cols = append(cols, v)
			}
		}
		sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
		for _, v := range cols {
			c.Col = append(c.Col, v)
			c.Val = append(c.Val, float64(r.Intn(9)+1))
		}
		c.Off[u+1] = int64(len(c.Col))
	}
	return c
}

// view is one structure serving a graph to the kernels.
type view struct {
	name string
	g    Graph
}

// replicaViews serves one random graph from every structure after a few
// random propagation batches have gone through each: the CSR through
// csr.Merge (Algorithm 2), the dynamic replica through Algorithm 1 and
// Sortledton through its own updates. The first view is the CSR.
func replicaViews(seed int64, n, avgDeg int) []view {
	c := randomCSR(seed, n, avgDeg)
	dg := dyngraph.FromCSR(c)
	sl := sortledton.FromCSR(c)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 4; i++ {
		batch := randomBatch(r, uint64(c.NumNodes()))
		c, _ = csr.Merge(c, batch)
		dg.ApplyBatch(batch)
		sl.ApplyBatch(batch)
	}
	return []view{{"csr", CSRGraph{c}}, {"dyngraph", dg}, {"sortledton", sl}}
}

// randomBatch builds a node-sorted batch over oldN existing nodes the way a
// delta store scan produces it: edge inserts (some overwriting), edge
// deletes (some of missing edges) and node deletes on existing nodes, plus
// new nodes beyond the range with ID gaps between them, one of them
// inserted and deleted within the window.
func randomBatch(r *rand.Rand, oldN uint64) *delta.Batch {
	var nodes []uint64
	for u := uint64(0); u < oldN; u++ {
		if r.Intn(8) == 0 {
			nodes = append(nodes, u)
		}
	}
	newN := oldN
	for k := 0; k < 3; k++ {
		newN += uint64(r.Intn(3)) + 1
		nodes = append(nodes, newN-1)
	}
	b := &delta.Batch{}
	for _, u := range nodes {
		d := delta.Combined{Node: u, Inserted: u >= oldN}
		if r.Intn(10) == 0 || u == newN-1 {
			d.Inserted, d.Deleted = false, true
			b.Deltas = append(b.Deltas, d)
			continue
		}
		picked := map[uint64]bool{}
		for k := r.Intn(5); k > 0; k-- {
			picked[uint64(r.Intn(int(newN)))] = true
		}
		for v := uint64(0); v < newN; v++ {
			switch {
			case !picked[v]:
			case u < oldN && r.Intn(3) == 0:
				d.Del = append(d.Del, v)
			default:
				d.Ins = append(d.Ins, delta.Edge{Dst: v, W: float64(r.Intn(9) + 1)})
			}
		}
		if !d.Empty() {
			b.Deltas = append(b.Deltas, d)
		}
	}
	return b
}

// agreeAcrossViews runs each kernel on every view and requires the CSR's
// result from the others: identical outputs (PageRank within 1e-12, its
// float sums being order-dependent) and identical traversed-edge work.
func agreeAcrossViews(t *testing.T, views []view, kinds ...string) {
	t.Helper()
	for _, kind := range kinds {
		want, err := Run(views[0].g, kind, 0, 5, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range views[1:] {
			got, err := Run(v.g, kind, 0, 5, 0.85)
			if err != nil {
				t.Fatal(err)
			}
			if got.Work.Edges != want.Work.Edges {
				t.Errorf("%s on %s: %v edges, csr %v", kind, v.name, got.Work.Edges, want.Work.Edges)
			}
			if len(got.Ranks) != len(want.Ranks) {
				t.Fatalf("%s on %s: %d ranks, csr %d", kind, v.name, len(got.Ranks), len(want.Ranks))
			}
			for i := range want.Ranks {
				if math.Abs(got.Ranks[i]-want.Ranks[i]) > 1e-12 {
					t.Fatalf("%s on %s differs at %d: %v vs %v", kind, v.name, i, got.Ranks[i], want.Ranks[i])
				}
			}
			w := want
			got.Ranks, w.Ranks, got.Work, w.Work = nil, nil, WorkStats{}, WorkStats{}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("%s differs between %s and csr", kind, v.name)
			}
		}
	}
}

// The same graph served by every structure must give identical analytics
// results.
func TestKernelsAgreeAcrossStructures(t *testing.T) {
	agreeAcrossViews(t, replicaViews(11, 300, 4), "bfs", "sssp", "pagerank", "wcc")
}

// Property checks on random graphs.
func TestBFSInvariants(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		c := randomCSR(seed, 200, 3)
		g := CSRGraph{c}
		levels, _ := BFS(g, 0)
		if levels[0] != 0 {
			t.Fatal("source level != 0")
		}
		// Edge relaxation: level[v] <= level[u]+1 for reachable u.
		for u := 0; u < c.NumNodes(); u++ {
			if levels[u] == Unreachable {
				continue
			}
			dst, _ := g.Row(uint64(u))
			for _, v := range dst {
				if levels[v] == Unreachable || levels[v] > levels[u]+1 {
					t.Fatalf("seed %d: BFS level invariant broken on %d→%d (%d, %d)",
						seed, u, v, levels[u], levels[v])
				}
			}
		}
	}
}

func TestSSSPInvariants(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		c := randomCSR(seed+100, 200, 3)
		g := CSRGraph{c}
		dist, _ := SSSP(g, 0)
		if dist[0] != 0 {
			t.Fatal("source dist != 0")
		}
		// Triangle inequality on every edge from a reachable node.
		for u := 0; u < c.NumNodes(); u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			dst, ws := g.Row(uint64(u))
			for i, v := range dst {
				if dist[v] > dist[u]+ws[i]+1e-9 {
					t.Fatalf("seed %d: SSSP not settled on %d→%d", seed, u, v)
				}
			}
		}
		// Consistency with BFS reachability.
		levels, _ := BFS(g, 0)
		for i := range dist {
			if (levels[i] == Unreachable) != math.IsInf(dist[i], 1) {
				t.Fatalf("seed %d: BFS/SSSP reachability disagrees at %d", seed, i)
			}
		}
	}
}

func TestWCCMatchesReferenceDFS(t *testing.T) {
	c := randomCSR(5, 120, 2)
	comp, _ := WCC(CSRGraph{c})
	// Reference: undirected DFS.
	adj := make([][]uint64, c.NumNodes())
	for u := 0; u < c.NumNodes(); u++ {
		col, _ := c.Row(uint64(u))
		for _, v := range col {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], uint64(u))
		}
	}
	ref := make([]uint64, c.NumNodes())
	for i := range ref {
		ref[i] = math.MaxUint64
	}
	for s := 0; s < c.NumNodes(); s++ {
		if ref[s] != math.MaxUint64 {
			continue
		}
		stack := []uint64{uint64(s)}
		ref[s] = uint64(s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if ref[v] == math.MaxUint64 {
					ref[v] = uint64(s)
					stack = append(stack, v)
				}
			}
		}
	}
	for i := range comp {
		for j := range comp {
			if (comp[i] == comp[j]) != (ref[i] == ref[j]) {
				t.Fatalf("WCC partition differs from DFS at (%d,%d)", i, j)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	empty := &csr.CSR{Off: []int64{0}}
	if r, _ := PageRank(CSRGraph{empty}, 3, 0.85); r != nil {
		t.Fatalf("PageRank on empty graph = %v", r)
	}
	if l, _ := BFS(CSRGraph{empty}, 0); len(l) != 0 {
		t.Fatalf("BFS on empty graph = %v", l)
	}
	if c, _ := WCC(CSRGraph{empty}); len(c) != 0 {
		t.Fatalf("WCC on empty graph = %v", c)
	}
}
