// Package sortledton reimplements the CPU-side dynamic structural graph the
// paper compares against in §6.7: Sortledton [26], a transactional
// adjacency structure with per-vertex sorted neighborhoods supporting
// concurrent updates and analytics on the same instance.
//
// The comparison-relevant properties are preserved: sorted adjacency sets
// with binary-search insertion, per-vertex reader/writer locking so
// analytics and updates run concurrently on one graph (and interfere, which
// is the effect §6.7 measures — "extra performance penalties due to a lack
// of performance isolation"), and no delta storage or GPU offload.
package sortledton

import (
	"sort"
	"sync"

	"h2tap/internal/csr"
	"h2tap/internal/delta"
	"h2tap/internal/mvto"
)

type edge struct {
	dst uint64
	w   float64
}

// vert is one vertex's sorted neighborhood.
type vert struct {
	mu        sync.RWMutex
	neighbors []edge // sorted by dst
}

// Store is the dynamic structural graph.
type Store struct {
	mu    sync.RWMutex // guards the vertex directory
	verts []*vert
}

// New returns an empty store.
func New() *Store { return &Store{} }

// FromCSR loads a CSR snapshot.
func FromCSR(c *csr.CSR) *Store {
	s := &Store{verts: make([]*vert, c.NumNodes())}
	for u := 0; u < c.NumNodes(); u++ {
		col, val := c.Row(uint64(u))
		v := &vert{neighbors: make([]edge, len(col))}
		for i := range col {
			v.neighbors[i] = edge{dst: col[i], w: val[i]}
		}
		s.verts[u] = v
	}
	return s
}

// FromSnapshot loads the main graph at a commit timestamp.
func FromSnapshot(src csr.Snapshot, ts mvto.TS) *Store {
	return FromCSR(csr.Build(src, ts))
}

func (s *Store) vertex(u uint64) *vert {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if u >= uint64(len(s.verts)) {
		return nil
	}
	return s.verts[u]
}

// InsertVertex makes vertex id present (growing the directory as needed).
// Inserting an existing vertex is a no-op.
func (s *Store) InsertVertex(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.grow(id)
	if s.verts[id] == nil {
		s.verts[id] = &vert{}
	}
}

// DeleteVertex removes the vertex; its slot stays in the ID space as an
// absent vertex (growing the directory as needed, as the replicas keep a
// node inserted and deleted in one window as an empty row). Edges pointing
// to it from other vertices are the caller's responsibility (the workload
// issues explicit edge deletes, mirroring the delta semantics).
func (s *Store) DeleteVertex(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.grow(id)
	s.verts[id] = nil
}

// grow extends the directory to cover id. The caller holds s.mu.
func (s *Store) grow(id uint64) {
	if n := id + 1; n > uint64(len(s.verts)) {
		s.verts = append(s.verts, make([]*vert, n-uint64(len(s.verts)))...)
	}
}

// HasVertex reports whether the vertex exists.
func (s *Store) HasVertex(id uint64) bool { return s.vertex(id) != nil }

// InsertEdge inserts or updates src→dst with the given weight, keeping the
// neighborhood sorted (binary search + in-place insertion, the Sortledton
// sorted-set discipline). Absent endpoints are created.
func (s *Store) InsertEdge(src, dst uint64, w float64) {
	v := s.vertex(src)
	if v == nil {
		s.InsertVertex(src)
		v = s.vertex(src)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	i := sort.Search(len(v.neighbors), func(i int) bool { return v.neighbors[i].dst >= dst })
	if i < len(v.neighbors) && v.neighbors[i].dst == dst {
		v.neighbors[i].w = w
		return
	}
	v.neighbors = append(v.neighbors, edge{})
	copy(v.neighbors[i+1:], v.neighbors[i:])
	v.neighbors[i] = edge{dst: dst, w: w}
}

// DeleteEdge removes src→dst; deleting a missing edge is a no-op.
func (s *Store) DeleteEdge(src, dst uint64) {
	v := s.vertex(src)
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	i := sort.Search(len(v.neighbors), func(i int) bool { return v.neighbors[i].dst >= dst })
	if i < len(v.neighbors) && v.neighbors[i].dst == dst {
		v.neighbors = append(v.neighbors[:i], v.neighbors[i+1:]...)
	}
}

// ApplyBatch applies a combined-delta batch (used when driving identical
// workloads into Sortledton and the replicas for comparison).
func (s *Store) ApplyBatch(b *delta.Batch) {
	for i := range b.Deltas {
		d := &b.Deltas[i]
		switch {
		case d.Deleted:
			s.DeleteVertex(d.Node)
		default:
			if d.Inserted {
				s.InsertVertex(d.Node)
			}
			for _, dst := range d.Del {
				s.DeleteEdge(d.Node, dst)
			}
			for _, e := range d.Ins {
				s.InsertEdge(d.Node, e.Dst, e.W)
			}
		}
	}
}

// NumVertexSlots implements analytics.Graph.
func (s *Store) NumVertexSlots() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.verts)
}

// Row implements analytics.Graph: a copy of u's sorted neighborhood, taken
// under the per-vertex read lock. The copy contends with writers on that
// lock — the source of the update/analytics interference §6.7 measures.
func (s *Store) Row(u uint64) ([]uint64, []float64) {
	v := s.vertex(u)
	if v == nil {
		return nil, nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	if len(v.neighbors) == 0 {
		return nil, nil
	}
	dst := make([]uint64, len(v.neighbors))
	w := make([]float64, len(v.neighbors))
	for i, e := range v.neighbors {
		dst[i], w[i] = e.dst, e.w
	}
	return dst, w
}

// NumEdges counts stored edges.
func (s *Store) NumEdges() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, v := range s.verts {
		if v != nil {
			v.mu.RLock()
			n += int64(len(v.neighbors))
			v.mu.RUnlock()
		}
	}
	return n
}

// ToCSR exports a CSR snapshot for equivalence checks.
func (s *Store) ToCSR() *csr.CSR {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &csr.CSR{Off: make([]int64, len(s.verts)+1)}
	for u, v := range s.verts {
		if v != nil {
			v.mu.RLock()
			for _, e := range v.neighbors {
				c.Col = append(c.Col, e.dst)
				c.Val = append(c.Val, e.w)
			}
			v.mu.RUnlock()
		}
		c.Off[u+1] = int64(len(c.Col))
	}
	return c
}
