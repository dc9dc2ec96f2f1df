package shard

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"h2tap/internal/analytics"
	"h2tap/internal/csr"
	"h2tap/internal/graph"
	"h2tap/internal/htap"
)

// oracleComposite is the map-and-sort composite build that buildComposite
// replaced, kept as the reference the dense build must agree with: a sorted
// global-ID slice, a map index over it, and one re-sorted row per vertex.
// rev[s] maps shard s's ghost slots to the global ID they stand in for.
func oracleComposite(p Partitioner, views []analytics.Graph, rev []map[graph.NodeID]uint64) (gids []uint64, comp *csr.CSR, owned []int64, edges int64, cidx map[uint64]uint64) {
	for s, v := range views {
		if v == nil {
			continue
		}
		n := v.NumVertexSlots()
		for l := 0; l < n; l++ {
			if _, ghost := rev[s][graph.NodeID(l)]; ghost {
				continue
			}
			gids = append(gids, p.Global(s, graph.NodeID(l)))
		}
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	cidx = make(map[uint64]uint64, len(gids))
	for i, g := range gids {
		cidx[g] = uint64(i)
	}

	type edge struct {
		dst uint64
		w   float64
	}
	rows := make([][]edge, len(gids))
	owned = make([]int64, len(views))
	for i, g := range gids {
		s, l := p.ShardOf(g), p.Local(g)
		dsts, ws := views[s].Row(l)
		for k, dst := range dsts {
			gdst, ok := rev[s][graph.NodeID(dst)]
			if !ok {
				gdst = p.Global(s, graph.NodeID(dst))
			}
			ci, ok := cidx[gdst]
			if !ok {
				continue
			}
			rows[i] = append(rows[i], edge{dst: ci, w: ws[k]})
			owned[s]++
			edges++
		}
		sort.Slice(rows[i], func(a, b int) bool { return rows[i][a].dst < rows[i][b].dst })
	}
	comp = &csr.CSR{
		Off: make([]int64, len(gids)+1),
		Col: make([]uint64, 0, edges),
		Val: make([]float64, 0, edges),
	}
	for i, r := range rows {
		for _, e := range r {
			comp.Col = append(comp.Col, e.dst)
			comp.Val = append(comp.Val, e.w)
		}
		comp.Off[i+1] = int64(len(comp.Col))
	}
	return gids, comp, owned, edges, cidx
}

// stitchInput is one randomly drawn stitch: per-shard views (nil for an
// excluded shard), the ghost registry and a source.
type stitchInput struct {
	part  Partitioner
	views []analytics.Graph
	rev   []map[graph.NodeID]uint64
	src   uint64
}

// byteSource draws bounded integers from fuzz bytes (0 once exhausted).
type byteSource []byte

func (b *byteSource) next(n int) int {
	if len(*b) == 0 || n <= 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// drawStitch decodes a stitch input. The draw covers holes (empty rows),
// excluded shards, parallel edges, destinations past a view's slots, ghosts
// at or past a view's slot count, ghosts whose target is excluded, a ghost
// or out of range, and ghost rewiring that breaks a row's order.
func drawStitch(data []byte) stitchInput {
	b := byteSource(data)
	n := 1 + b.next(5)
	in := stitchInput{part: NewPartitioner(n), views: make([]analytics.Graph, n), rev: make([]map[graph.NodeID]uint64, n)}
	maxSlots := 0
	for s := 0; s < n; s++ {
		in.rev[s] = map[graph.NodeID]uint64{}
		slots := b.next(10)
		maxSlots = max(maxSlots, slots)
		if b.next(5) == 0 {
			continue // excluded
		}
		c := &csr.CSR{Off: make([]int64, slots+1)}
		for l := 0; l < slots; l++ {
			d := uint64(b.next(3))
			for k := b.next(5); k > 0; k-- {
				c.Col = append(c.Col, d)
				c.Val = append(c.Val, float64(b.next(4)))
				d += uint64(b.next(3)) // 0 draws a parallel edge
			}
			c.Off[l+1] = int64(len(c.Col))
		}
		in.views[s] = analytics.CSRGraph{C: c}
	}
	span := (maxSlots + 4) * n
	for k := b.next(16); k > 0; k-- {
		s := b.next(n)
		in.rev[s][graph.NodeID(b.next(maxSlots+4))] = uint64(b.next(span + 4))
	}
	in.src = uint64(b.next(span + 4))
	return in
}

// checkComposite compares buildComposite against the oracle. Rows are
// compared exactly by destination; the weights of parallel edges (tied
// destinations) are compared as multisets, since neither build's row sort
// is stable.
func checkComposite(t *testing.T, in stitchInput) {
	t.Helper()
	wantG, want, wantOwned, wantEdges, wantIdx := oracleComposite(in.part, in.views, in.rev)
	got, err := buildComposite(in.part, in.views, func(fn func(int, graph.NodeID, uint64)) {
		for s, m := range in.rev {
			for l, g := range m {
				fn(s, l, g)
			}
		}
	})
	if err != nil {
		t.Fatalf("buildComposite: %v", err)
	}
	if !slices.Equal(got.gids, wantG) {
		t.Fatalf("GlobalIDs %v, oracle %v", got.gids, wantG)
	}
	if !slices.Equal(got.csr.Off, want.Off) || !slices.Equal(got.csr.Col, want.Col) {
		t.Fatalf("adjacency Off=%v Col=%v, oracle Off=%v Col=%v", got.csr.Off, got.csr.Col, want.Off, want.Col)
	}
	for i := 0; i+1 < len(want.Off); i++ {
		a, z := want.Off[i], want.Off[i+1]
		gw, ww := slices.Clone(got.csr.Val[a:z]), slices.Clone(want.Val[a:z])
		for j := 0; j < len(gw); {
			k := j
			for k < len(gw) && want.Col[a+int64(k)] == want.Col[a+int64(j)] {
				k++
			}
			slices.Sort(gw[j:k])
			slices.Sort(ww[j:k])
			j = k
		}
		if !slices.Equal(gw, ww) {
			t.Fatalf("row %d weights %v, oracle %v", i, got.csr.Val[a:z], want.Val[a:z])
		}
	}
	if got.csr.NumEdges() != wantEdges || !slices.Equal(got.owned, wantOwned) {
		t.Fatalf("edges %d owned %v, oracle %d %v", got.csr.NumEdges(), got.owned, wantEdges, wantOwned)
	}
	for g := uint64(0); g <= uint64(len(got.index))+uint64(in.part.Shards())+1; g++ {
		ci, ok := got.vertex(g)
		wci, wok := wantIdx[g]
		if ok != wok || ci != wci {
			t.Fatalf("source %d translates to (%d, %v), oracle (%d, %v)", g, ci, ok, wci, wok)
		}
	}
	ci, ok := got.vertex(in.src)
	if wci, wok := wantIdx[in.src]; ok != wok || ci != wci {
		t.Fatalf("source %d translates to (%d, %v), oracle (%d, %v)", in.src, ci, ok, wci, wok)
	}
}

func FuzzStitchComposite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 1, 0, 2, 1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 0, 2, 0, 5, 0, 3, 1, 2, 0, 1})
	// Two shards; shard 0's rows reach a ghost slot standing in for a
	// shard-1 vertex that sorts before their other destinations.
	f.Add([]byte{1, 4, 1, 4, 1, 0, 4, 1, 2, 1, 2, 3, 0, 1, 1, 1, 2, 2, 1, 0, 2, 0, 2, 1, 0, 0, 0, 0, 4, 0, 3, 1, 0, 3, 1, 1, 3, 0, 2, 3, 1, 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(192))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkComposite(t, drawStitch(data))
	})
}

// TestBuildCompositeMatchesOracle runs the differential check over a fixed
// random corpus on every test run, and checks the corpus reaches the rows
// whose ghost rewiring breaks their order.
func TestBuildCompositeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	resorted := 0
	for i := 0; i < 2000; i++ {
		data := make([]byte, 16+rng.Intn(240))
		rng.Read(data)
		in := drawStitch(data)
		checkComposite(t, in)
		resorted += rowsResorted(in)
	}
	if resorted == 0 {
		t.Fatal("corpus never broke a row's order by ghost rewiring")
	}
}

// rowsResorted counts the rows whose translated destinations come out of
// order, so that the build has to sort them.
func rowsResorted(in stitchInput) int {
	gids, _, _, _, cidx := oracleComposite(in.part, in.views, in.rev)
	n := 0
	for _, g := range gids {
		s := in.part.ShardOf(g)
		dsts, _ := in.views[s].Row(in.part.Local(g))
		prev := int64(-1)
		for _, dst := range dsts {
			gdst, ok := in.rev[s][dst]
			if !ok {
				gdst = in.part.Global(s, dst)
			}
			if ci, ok := cidx[gdst]; ok {
				if int64(ci) < prev {
					n++
					break
				}
				prev = int64(ci)
			}
		}
	}
	return n
}

// TestStitchedKernelRunsUnpinned holds a stitched PageRank between its
// composite build and its kernel, and propagates a shard meanwhile. The
// shards are unpinned by then, so the cycle must not wait on the kernel.
func TestStitchedKernelRunsUnpinned(t *testing.T) {
	c, err := Open(Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()
	hub, spokes := buildStar(t, c, 16)
	if _, err := c.RunAnalytics(htap.BFS, hub); err != nil {
		t.Fatalf("RunAnalytics: %v", err)
	}

	ran := false
	c.afterUnpin = func() {
		ran = true
		done := make(chan error, 1)
		go func() {
			tx := c.Begin()
			if _, err := tx.AddRel(spokes[0], hub, "back", 1); err != nil {
				done <- err
				return
			}
			if err := tx.Commit(); err != nil {
				done <- err
				return
			}
			_, err := c.domains[c.part.ShardOf(spokes[0])].Engine().Propagate()
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("commit+propagate during the kernel: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("shard propagation blocked behind a stitched kernel: replicas still pinned")
		}
	}
	if _, err := c.RunAnalytics(htap.PageRank, hub); err != nil {
		t.Fatalf("stitched PageRank: %v", err)
	}
	if !ran {
		t.Fatal("stitched request never reached its kernel")
	}
}

// BenchmarkStitchBFS measures one stitched BFS end to end (barrier,
// composite build, kernel) on four volatile shards: 20 000 nodes committed
// in 500-node transactions, 1 000 random edges, sources rotating.
func BenchmarkStitchBFS(b *testing.B) {
	c, err := Open(Options{Shards: 4})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	defer c.Close()
	ids := make([]uint64, 0, 20000)
	for len(ids) < cap(ids) {
		tx := c.Begin()
		for i := 0; i < 500; i++ {
			g, err := tx.AddNode("N", nil)
			if err != nil {
				b.Fatalf("AddNode: %v", err)
			}
			ids = append(ids, g)
		}
		if err := tx.Commit(); err != nil {
			b.Fatalf("Commit: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for added := 0; added < 1000; {
		src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		tx := c.Begin()
		if _, err := tx.AddRel(src, dst, "E", 1); err != nil {
			// A repeated pair: draw another.
			tx.Abort() //nolint:errcheck
			continue
		}
		if err := tx.Commit(); err != nil {
			b.Fatalf("Commit: %v", err)
		}
		added++
	}
	if err := c.StartEngines(); err != nil {
		b.Fatalf("StartEngines: %v", err)
	}
	if _, err := c.RunAnalytics(htap.BFS, ids[0]); err != nil {
		b.Fatalf("RunAnalytics: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunAnalytics(htap.BFS, ids[(i*7919)%len(ids)]); err != nil {
			b.Fatalf("RunAnalytics: %v", err)
		}
	}
}
