// Package dyngraph implements the paper's representative *dynamic* GPU
// graph data structure (§2.1, §5.4): per-vertex adjacency storage after
// Awad et al. [7], with batched ingestion of update groups — Algorithm 1.
// On real hardware the structure is a hash table per vertex in GPU memory
// and batches are ingested by kernels; here its host twin is a sorted row
// per vertex, and the simulated device charges transfer and ingest-kernel
// time for the hash table (see internal/gpu).
package dyngraph

import (
	"fmt"
	"runtime"
	"sync"

	"h2tap/internal/csr"
	"h2tap/internal/delta"
)

// row is one vertex's out-edges, sorted by destination. Rows are never
// written in place: a touched row is replaced by a freshly merged one, so a
// slice handed out by Row stays valid until the graph is mutated.
type row struct {
	dst []uint64
	w   []float64
}

// Graph is the dynamic structure. Vertices are indexed by node ID; an
// absent (never-inserted or deleted) vertex is an empty row.
//
// Graph has no lock of its own. In the engine it is mutated only inside
// gpu.ResidentDyn.IngestWorkers under htap.Engine's replicaMu write lock,
// and read only under its read lock (kernel runs, AcquireReplica, Scrub).
// Other callers must likewise not read it while it is being mutated.
type Graph struct {
	rows     []row
	numEdges int64
}

// FromCSR builds the dynamic structure from a CSR snapshot (initial replica
// load). The rows share c's arrays, which CSRs never modify after
// construction; ingest replaces a touched row rather than writing into it.
func FromCSR(c *csr.CSR) *Graph {
	g := &Graph{rows: make([]row, c.NumNodes()), numEdges: c.NumEdges()}
	for u := range g.rows {
		lo, hi := c.Off[u], c.Off[u+1]
		if lo < hi {
			g.rows[u] = row{dst: c.Col[lo:hi:hi], w: c.Val[lo:hi:hi]}
		}
	}
	return g
}

// NumVertexSlots reports the vertex ID space (including absent slots).
func (g *Graph) NumVertexSlots() int { return len(g.rows) }

// NumEdges reports the stored edge count.
func (g *Graph) NumEdges() int64 { return g.numEdges }

// Row returns u's out-edges in ascending destination order, or nil rows for
// an absent or out-of-range vertex. The slices are read-only.
func (g *Graph) Row(u uint64) ([]uint64, []float64) {
	if u >= uint64(len(g.rows)) {
		return nil, nil
	}
	r := &g.rows[u]
	return r.dst, r.w
}

// Stats reports the work of one ApplyBatch, used to charge the simulated
// ingest kernel.
type Stats struct {
	EdgeInserts int
	EdgeDeletes int
	NodeInserts int
	NodeDeletes int
}

// Ops is the total number of update operations ingested.
func (s Stats) Ops() int {
	return s.EdgeInserts + s.EdgeDeletes + s.NodeInserts + s.NodeDeletes
}

// PlanBatch predicts applying b without mutating the graph: the exact
// Stats ApplyBatchWorkers will report, the vertex-slot count after
// application, and an upper bound on the post-application edge count
// (ignoring deletes). The simulated device uses it to charge the ingest
// kernel and reserve growth memory *before* the host-side twin mutates, so
// a rejected ingest is failure-atomic.
func (g *Graph) PlanBatch(b *delta.Batch) (st Stats, slots int, maxEdges int64) {
	xid := int64(len(g.rows)) - 1
	slots = len(g.rows)
	maxEdges = g.numEdges
	for i := range b.Deltas {
		d := &b.Deltas[i]
		switch {
		case d.Deleted:
			st.NodeDeletes++
		case int64(d.Node) <= xid:
			st.EdgeInserts += len(d.Ins)
			st.EdgeDeletes += len(d.Del)
			maxEdges += int64(len(d.Ins))
		default:
			st.NodeInserts++
			st.EdgeInserts += len(d.Ins)
			maxEdges += int64(len(d.Ins))
		}
		if need := int(d.Node) + 1; need > slots {
			slots = need
		}
	}
	return st, slots, maxEdges
}

// ApplyBatch ingests one propagation batch — Algorithm 1 — with
// GOMAXPROCS workers for the existing-node edge batches. See
// ApplyBatchWorkers.
func (g *Graph) ApplyBatch(b *delta.Batch) Stats {
	return g.ApplyBatchWorkers(b, 0)
}

// ApplyBatchWorkers ingests one propagation batch — Algorithm 1 — with an
// explicit worker count (workers <= 0 selects GOMAXPROCS). Deltas are
// partitioned by the pre-update maximum node ID: deleted nodes go to a
// deletion queue, deltas for existing nodes apply their edge inserts and
// deletes in batches, deltas beyond the old range enter an insertion queue;
// the queues are drained last (lines 10-11). Every touched row is rebuilt
// by csr.MergeRow, the row merge of the static path, so both replicas
// apply a combined delta identically. Edge batches for distinct vertices
// are ingested in parallel, mirroring the GPU structure's concurrent bucket
// updates: each delta touches only its own vertex's row, so sharding the
// node-sorted delta list gives workers disjoint vertex sets. The resulting
// graph is identical at every worker count.
func (g *Graph) ApplyBatchWorkers(b *delta.Batch, workers int) Stats {
	xid := int64(len(g.rows)) - 1 // max node ID before updates (line 1)
	var st Stats
	var insertions []*delta.Combined // queue of new-node deltas (line 9)
	var deletions []uint64           // queue of deleted node IDs (line 4)
	var existing []*delta.Combined

	for i := range b.Deltas {
		d := &b.Deltas[i]
		switch {
		case d.Deleted:
			deletions = append(deletions, d.Node)
		case int64(d.Node) <= xid:
			existing = append(existing, d)
		default:
			insertions = append(insertions, d)
		}
	}

	// Lines 6-7: batched edge ingestion for existing nodes, parallel
	// across vertices.
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(existing) {
		workers = len(existing)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	chunk := (len(existing) + workers - 1) / workers
	for w := 0; w < len(existing); w += chunk {
		lo, hi := w, w+chunk
		if hi > len(existing) {
			hi = len(existing)
		}
		wg.Add(1)
		go func(ds []*delta.Combined) {
			defer wg.Done()
			var local Stats
			var edgeDelta int64
			for _, d := range ds {
				edgeDelta += g.merge(d)
				local.EdgeInserts += len(d.Ins)
				local.EdgeDeletes += len(d.Del)
			}
			mu.Lock()
			st.EdgeInserts += local.EdgeInserts
			st.EdgeDeletes += local.EdgeDeletes
			g.numEdges += edgeDelta
			mu.Unlock()
		}(existing[lo:hi])
	}
	wg.Wait()

	// Line 10: ingest newly inserted nodes. ID gaps — IDs whose insert
	// aborted — become empty rows.
	for _, d := range insertions {
		g.grow(d.Node)
		g.numEdges += g.merge(d)
		st.NodeInserts++
		st.EdgeInserts += len(d.Ins)
	}

	// Line 11: remove deleted nodes. Edges *to* them were deleted via
	// explicit source-node deltas (§5.1), so only the vertex itself goes.
	// A node inserted and deleted within the window keeps its slot as an
	// empty row, as in the CSR merge.
	for _, id := range deletions {
		g.grow(id)
		g.numEdges -= int64(len(g.rows[id].dst))
		g.rows[id] = row{}
		st.NodeDeletes++
	}
	return st
}

// grow extends the vertex space to cover id with empty rows.
func (g *Graph) grow(id uint64) {
	if n := int(id) + 1; n > len(g.rows) {
		g.rows = append(g.rows, make([]row, n-len(g.rows))...)
	}
}

// merge replaces d.Node's row with its merge against d and returns the
// change in edge count.
func (g *Graph) merge(d *delta.Combined) int64 {
	old := g.rows[d.Node]
	var r row
	if n := len(old.dst) + len(d.Ins); n > 0 {
		r.dst, r.w = csr.MergeRow(make([]uint64, 0, n), make([]float64, 0, n), old.dst, old.w, d)
	}
	if len(r.dst) == 0 {
		r = row{}
	}
	g.rows[d.Node] = r
	return int64(len(r.dst) - len(old.dst))
}

// ToCSR exports the dynamic structure as a CSR, for equivalence checks
// against the static path.
func (g *Graph) ToCSR() *csr.CSR {
	c := &csr.CSR{
		Off: make([]int64, len(g.rows)+1),
		Col: make([]uint64, 0, g.numEdges),
		Val: make([]float64, 0, g.numEdges),
	}
	for u, r := range g.rows {
		c.Col = append(c.Col, r.dst...)
		c.Val = append(c.Val, r.w...)
		c.Off[u+1] = int64(len(c.Col))
	}
	return c
}

// Validate checks internal consistency: the edge counter against the
// rows, and every row strictly sorted with one weight per destination.
func (g *Graph) Validate() error {
	var n int64
	for u, r := range g.rows {
		if len(r.dst) != len(r.w) {
			return fmt.Errorf("dyngraph: row %d has %d destinations, %d weights", u, len(r.dst), len(r.w))
		}
		for i := 1; i < len(r.dst); i++ {
			if r.dst[i] <= r.dst[i-1] {
				return fmt.Errorf("dyngraph: row %d not strictly sorted at %d", u, i)
			}
		}
		n += int64(len(r.dst))
	}
	if n != g.numEdges {
		return fmt.Errorf("dyngraph: edge counter %d, actual %d", g.numEdges, n)
	}
	return nil
}
