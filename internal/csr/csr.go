// Package csr implements the Compressed Sparse Row graph representation —
// the paper's representative *static* GPU data structure (§2.1) — together
// with the three operations the evaluation measures: the full rebuild from
// the main graph (Fig 9a), the copy (Fig 9b/9c), and the delta merge of
// Algorithm 2 (§5.4) that replaces the rebuild in DELTA_FE.
package csr

import (
	"fmt"

	"h2tap/internal/delta"
	"h2tap/internal/mvto"
)

// CSR is a weighted directed graph in compressed sparse row form: row
// offsets, column indices (sorted within each row) and edge values, exactly
// the three arrays of §2.1.
type CSR struct {
	Off []int64   // len = NumNodes()+1
	Col []uint64  // len = NumEdges()
	Val []float64 // parallel to Col
}

// NumNodes reports the node ID space covered by the CSR (including
// empty rows for deleted nodes).
func (c *CSR) NumNodes() int { return len(c.Off) - 1 }

// NumEdges reports the number of stored edges.
func (c *CSR) NumEdges() int64 { return int64(len(c.Col)) }

// MaxNodeID reports the largest node ID representable in this CSR — the
// "xid" of Algorithms 1 and 2.
func (c *CSR) MaxNodeID() uint64 {
	if c.NumNodes() == 0 {
		return 0
	}
	return uint64(c.NumNodes() - 1)
}

// Row returns node u's column indices and edge values. The slices alias the
// CSR's arrays; callers must not modify them.
func (c *CSR) Row(u uint64) ([]uint64, []float64) {
	if u >= uint64(c.NumNodes()) {
		return nil, nil
	}
	lo, hi := c.Off[u], c.Off[u+1]
	return c.Col[lo:hi], c.Val[lo:hi]
}

// Bytes reports the memory footprint of the three arrays.
func (c *CSR) Bytes() int64 {
	return int64(len(c.Off))*8 + int64(len(c.Col))*8 + int64(len(c.Val))*8
}

// Copy deep-copies the CSR — the "CSR copy" operation of Fig 9b, the
// memcpy-bound floor under the merge time (§6.4).
func (c *CSR) Copy() *CSR {
	n := &CSR{
		Off: make([]int64, len(c.Off)),
		Col: make([]uint64, len(c.Col)),
		Val: make([]float64, len(c.Val)),
	}
	copy(n.Off, c.Off)
	copy(n.Col, c.Col)
	copy(n.Val, c.Val)
	return n
}

// Snapshot is the read view a CSR is built from: the main graph at a
// commit timestamp.
type Snapshot interface {
	NumNodeSlots() uint64
	OutEdgesAt(id uint64, ts mvto.TS) []delta.Edge
}

// Build constructs a CSR from a snapshot of the main graph — the full
// rebuild the paper shows to be the bottleneck (§1: 11× the SSSP execution
// time at SF 10). Rows are gathered in parallel across DefaultWorkers
// workers, then laid out by sharded prefix sum (see BuildWorkers).
func Build(src Snapshot, ts mvto.TS) *CSR {
	return BuildWorkers(src, ts, 0)
}

// MergeStats describes the work split of one Merge: the copied (unchanged)
// part dominated by graph size versus the modified part dominated by delta
// count — the two components of the paper's cost model (§6.4, Fig 10).
type MergeStats struct {
	RowsCopied   int
	RowsModified int
	RowsAdded    int // new nodes beyond the old CSR's range
	EdgesCopied  int64
	EdgesMerged  int64
}

// Merge produces the new CSR from the old CSR and one propagation batch —
// Algorithm 2 — using DefaultWorkers workers (the parallel sharded merge
// for multi-core hosts, the serial single-pass merge otherwise). Both paths
// produce identical bytes; see MergeSerial for the algorithm description.
func Merge(old *CSR, batch *delta.Batch) (*CSR, MergeStats) {
	return MergeWorkers(old, batch, 0)
}

// MergeSerial is the single-threaded Algorithm 2 reference. Untouched rows
// are block-copied with shifted offsets; touched rows are three-way merged
// with their combined delta (old row minus deletes, plus/overwriting
// inserts, deleted nodes becoming empty rows); rows for newly inserted
// nodes are taken from their deltas alone. The batch's deltas must be
// sorted by node ID, which deltastore.Scan guarantees.
func MergeSerial(old *CSR, batch *delta.Batch) (*CSR, MergeStats) {
	var st MergeStats
	oldN := uint64(old.NumNodes())
	newN := oldN
	for i := range batch.Deltas {
		if id := batch.Deltas[i].Node; id >= newN {
			newN = id + 1
		}
	}

	var extraIns int64
	for i := range batch.Deltas {
		extraIns += int64(len(batch.Deltas[i].Ins))
	}
	out := &CSR{
		Off: make([]int64, newN+1),
		Col: make([]uint64, 0, int64(len(old.Col))+extraIns),
		Val: make([]float64, 0, int64(len(old.Val))+extraIns),
	}

	copyRows := func(lo, hi uint64) { // [lo, hi) unchanged rows from old
		if lo >= hi {
			return
		}
		shift := int64(len(out.Col)) - old.Off[lo]
		out.Col = append(out.Col, old.Col[old.Off[lo]:old.Off[hi]]...)
		out.Val = append(out.Val, old.Val[old.Off[lo]:old.Off[hi]]...)
		for r := lo; r < hi; r++ {
			out.Off[r+1] = old.Off[r+1] + shift
		}
		st.RowsCopied += int(hi - lo)
		st.EdgesCopied += old.Off[hi] - old.Off[lo]
	}

	pos := uint64(0)
	for i := range batch.Deltas {
		d := &batch.Deltas[i]
		if d.Node >= oldN {
			// New-node territory: flush the remaining old rows once, then
			// fall through to the tail loop below.
			break
		}
		copyRows(pos, d.Node)
		oc, ov := old.Row(d.Node)
		out.Col, out.Val = MergeRow(out.Col, out.Val, oc, ov, d)
		out.Off[d.Node+1] = int64(len(out.Col))
		st.RowsModified++
		pos = d.Node + 1
	}
	copyRows(pos, oldN)
	pos = oldN

	// Tail: nodes beyond the old CSR (Algorithm 2 lines 16-17). Gaps —
	// IDs allocated to nodes whose insert aborted or that were inserted
	// and deleted within the window — become empty rows.
	for i := range batch.Deltas {
		d := &batch.Deltas[i]
		if d.Node < oldN {
			continue
		}
		for ; pos < d.Node; pos++ {
			out.Off[pos+1] = int64(len(out.Col))
		}
		out.Col, out.Val = MergeRow(out.Col, out.Val, nil, nil, d)
		out.Off[d.Node+1] = int64(len(out.Col))
		st.RowsAdded++
		pos = d.Node + 1
	}
	for ; pos < newN; pos++ {
		out.Off[pos+1] = int64(len(out.Col))
	}
	st.EdgesMerged = int64(len(out.Col)) - st.EdgesCopied
	return out, st
}

// MergeRow appends the merged row (old row oc/ov ∪ inserts, minus deletes)
// to col/val and returns the extended slices. Both the old row and the
// delta's Ins/Del are sorted, so this is a linear three-way merge. An insert
// whose destination already exists overwrites the weight (a delete+reinsert
// in one window); a deleted node yields an empty row. It is the one row
// merge of both replicas: the CSR merge appends rows into its new arrays,
// and the dynamic graph rebuilds each touched row with it. Any change here
// must be mirrored in mergedRowLen.
func MergeRow(col []uint64, val []float64, oc []uint64, ov []float64, d *delta.Combined) ([]uint64, []float64) {
	if d.Deleted {
		return col, val
	}
	i, j, k := 0, 0, 0 // old row, Ins, Del cursors
	for i < len(oc) || j < len(d.Ins) {
		// Skip deletes that can no longer match anything.
		useOld := j >= len(d.Ins) || (i < len(oc) && oc[i] <= d.Ins[j].Dst)
		if useOld {
			dst := oc[i]
			for k < len(d.Del) && d.Del[k] < dst {
				k++
			}
			if k < len(d.Del) && d.Del[k] == dst {
				i++ // deleted edge
				continue
			}
			if j < len(d.Ins) && d.Ins[j].Dst == dst {
				// Overwrite: take the insert's weight, consume both.
				col = append(col, dst)
				val = append(val, d.Ins[j].W)
				i++
				j++
				continue
			}
			col = append(col, dst)
			val = append(val, ov[i])
			i++
			continue
		}
		col = append(col, d.Ins[j].Dst)
		val = append(val, d.Ins[j].W)
		j++
	}
	return col, val
}

// Equal reports whether two CSRs represent the same graph (same rows over
// the common prefix and only empty rows beyond it).
func Equal(a, b *CSR) bool {
	an, bn := a.NumNodes(), b.NumNodes()
	n := an
	if bn > n {
		n = bn
	}
	for u := 0; u < n; u++ {
		ac, av := a.Row(uint64(u))
		bc, bv := b.Row(uint64(u))
		if len(ac) != len(bc) {
			return false
		}
		for i := range ac {
			if ac[i] != bc[i] || av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// Validate checks structural invariants: monotone offsets, sorted rows,
// and column indices below the node count. It returns the first violation.
func (c *CSR) Validate() error {
	if len(c.Off) == 0 {
		return fmt.Errorf("csr: empty offsets array")
	}
	if c.Off[0] != 0 {
		return fmt.Errorf("csr: Off[0] = %d, want 0", c.Off[0])
	}
	if int(c.Off[len(c.Off)-1]) != len(c.Col) || len(c.Col) != len(c.Val) {
		return fmt.Errorf("csr: array lengths inconsistent: off end %d, col %d, val %d",
			c.Off[len(c.Off)-1], len(c.Col), len(c.Val))
	}
	for u := 0; u < c.NumNodes(); u++ {
		if c.Off[u+1] < c.Off[u] {
			return fmt.Errorf("csr: offsets not monotone at row %d", u)
		}
		row, _ := c.Row(uint64(u))
		for i := 1; i < len(row); i++ {
			if row[i] <= row[i-1] {
				return fmt.Errorf("csr: row %d not strictly sorted at %d", u, i)
			}
		}
	}
	return nil
}
