package csr

import (
	"sync"

	"h2tap/internal/delta"
)

// segRows is the row count of one Segmented segment. A batch's rows are
// spread over the ID space, so segments must be small for a cycle to copy
// little: on the SNB mixed workload, 200–360 transactions per cycle touch
// segments holding 18–29 % of the edges at 16 rows, against 51–68 % at 64.
const segRows = 16

// Segmented is the engine's host copy of the static replica: a CSR cut into
// immutable segments of segRows consecutive rows, each a small CSR with its
// own arrays. Merge rebuilds only the segments that hold a delta's node and
// shares every other segment with the version it started from (GraphVine's
// pooled blocks), so a propagation cycle copies what its batch touches
// rather than the whole graph. No segment is written after it is built: a
// version stays valid for as long as a reader holds it, and a replaced
// segment becomes garbage once no version does.
type Segmented struct {
	segs  []*segment // nil is a segment of empty rows
	n     int        // row count; rows of the last segment past n are empty
	edges int64
	fresh int64 // device bytes of the segments this version built
}

// segment holds rows [i·segRows, (i+1)·segRows) of a Segmented.
type segment struct {
	off [segRows + 1]int32
	col []uint64
	val []float64
}

func (g *segment) numEdges() int64 {
	if g == nil {
		return 0
	}
	return int64(len(g.col))
}

// Cut copies c into segments; no segment aliases c's arrays.
func Cut(c *CSR) *Segmented {
	n := c.NumNodes()
	s := &Segmented{segs: make([]*segment, (n+segRows-1)/segRows), n: n, edges: c.NumEdges()}
	for i := range s.segs {
		lo, hi := i*segRows, min((i+1)*segRows, n)
		base, end := c.Off[lo], c.Off[hi]
		if base == end {
			continue
		}
		g := &segment{col: append([]uint64(nil), c.Col[base:end]...), val: append([]float64(nil), c.Val[base:end]...)}
		for r := range g.off {
			g.off[r] = int32(c.Off[min(lo+r, hi)] - base)
		}
		s.segs[i] = g
	}
	s.fresh = s.Bytes()
	return s
}

// NumVertexSlots reports the row count (analytics.Graph).
func (s *Segmented) NumVertexSlots() int { return s.n }

// NumEdges reports the number of stored edges.
func (s *Segmented) NumEdges() int64 { return s.edges }

// Row returns node u's column indices and edge values (analytics.Graph).
// The slices alias an immutable segment; callers must not modify them.
func (s *Segmented) Row(u uint64) ([]uint64, []float64) {
	if u >= uint64(s.n) || s.segs[u/segRows] == nil {
		return nil, nil
	}
	g, r := s.segs[u/segRows], u%segRows
	return g.col[g.off[r]:g.off[r+1]], g.val[g.off[r]:g.off[r+1]]
}

// Bytes reports the device footprint of the version laid out as one CSR.
func (s *Segmented) Bytes() int64 { return int64(s.n+1)*8 + s.edges*16 }

// NewBytes reports the device bytes of the segments this version built —
// all of them for Cut, the rebuilt ones for Merge: what a replica swap
// ships.
func (s *Segmented) NewBytes() int64 { return s.fresh }

// ToCSR flattens the version into one CSR.
func (s *Segmented) ToCSR() *CSR {
	c := &CSR{Off: make([]int64, s.n+1), Col: make([]uint64, 0, s.edges), Val: make([]float64, 0, s.edges)}
	for u := 0; u < s.n; u++ {
		col, val := s.Row(uint64(u))
		c.Col, c.Val = append(c.Col, col...), append(c.Val, val...)
		c.Off[u+1] = int64(len(c.Col))
	}
	return c
}

// span is one segment a batch touches and its deltas, Deltas[lo:hi].
type span struct{ seg, lo, hi int }

// spans groups a node-sorted batch by segment.
func spans(batch *delta.Batch) []span {
	var out []span
	for k := range batch.Deltas {
		seg := int(batch.Deltas[k].Node / segRows)
		if n := len(out); n > 0 && out[n-1].seg == seg {
			out[n-1].hi = k + 1
		} else {
			out = append(out, span{seg: seg, lo: k, hi: k + 1})
		}
	}
	return out
}

// old returns segment i of s, nil past the end.
func (s *Segmented) old(i int) *segment {
	if i < len(s.segs) {
		return s.segs[i]
	}
	return nil
}

// TouchedEdges reports the edges held by the segments batch touches: the
// copy term of a Merge, which the §6.4 copy model prices.
func (s *Segmented) TouchedEdges(batch *delta.Batch) int64 {
	var n int64
	for _, sp := range spans(batch) {
		n += s.old(sp.seg).numEdges()
	}
	return n
}

// Merge applies one propagation batch (node-sorted, as deltastore scans
// produce) and returns the new version; s is left unchanged. The segments
// holding a delta's node are rebuilt across up to workers goroutines
// (<= 0 selects DefaultWorkers): touched rows through MergeRow, the
// segment's other rows copied. Segments for IDs past the end are appended,
// gaps left as empty rows, and every other segment is shared with s.
// MergeStats counts the rows and edges actually copied.
func (s *Segmented) Merge(batch *delta.Batch, workers int) (*Segmented, MergeStats) {
	n := s.n
	for i := range batch.Deltas {
		n = max(n, int(batch.Deltas[i].Node)+1)
	}
	out := &Segmented{segs: make([]*segment, (n+segRows-1)/segRows), n: n, edges: s.edges}
	copy(out.segs, s.segs)
	todo := spans(batch)
	workers = max(1, min(normWorkers(workers), len(todo)))
	stats := make([]MergeStats, workers)
	var wg sync.WaitGroup
	for w := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < len(todo); k += workers {
				sp := todo[k]
				out.segs[sp.seg] = s.rebuild(sp.seg, batch.Deltas[sp.lo:sp.hi], &stats[w])
			}
		}()
	}
	wg.Wait()

	var st MergeStats
	for _, p := range stats {
		st.RowsCopied += p.RowsCopied
		st.RowsModified += p.RowsModified
		st.RowsAdded += p.RowsAdded
		st.EdgesCopied += p.EdgesCopied
		st.EdgesMerged += p.EdgesMerged
	}
	for _, sp := range todo {
		g := out.segs[sp.seg]
		out.edges += g.numEdges() - s.old(sp.seg).numEdges()
		out.fresh += segRows*8 + g.numEdges()*16
	}
	return out, st
}

// rebuild builds segment i of the next version from s's and the deltas of
// its rows, or returns nil when every row comes out empty.
func (s *Segmented) rebuild(i int, ds []delta.Combined, st *MergeStats) *segment {
	old := s.old(i)
	size := int(old.numEdges())
	for k := range ds {
		size += len(ds[k].Ins)
	}
	g := &segment{col: make([]uint64, 0, size), val: make([]float64, 0, size)}
	for r := 0; r < segRows; r++ {
		u := uint64(i*segRows + r)
		var oc []uint64
		var ov []float64
		if old != nil {
			oc, ov = old.col[old.off[r]:old.off[r+1]], old.val[old.off[r]:old.off[r+1]]
		}
		switch {
		case len(ds) > 0 && ds[0].Node == u:
			at := len(g.col)
			g.col, g.val = MergeRow(g.col, g.val, oc, ov, &ds[0])
			ds = ds[1:]
			st.EdgesMerged += int64(len(g.col) - at)
			if u < uint64(s.n) {
				st.RowsModified++
			} else {
				st.RowsAdded++
			}
		case u < uint64(s.n):
			g.col, g.val = append(g.col, oc...), append(g.val, ov...)
			st.RowsCopied++
			st.EdgesCopied += int64(len(oc))
		}
		g.off[r+1] = int32(len(g.col))
	}
	if len(g.col) == 0 {
		return nil
	}
	return g
}
