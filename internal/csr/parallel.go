// Parallel variants of the propagation-side CSR operations. The paper's
// §6.6 walkthrough shows the CSR merge at 2.06s of a 2M-delta cycle; the
// batch handed to Merge is sorted by node ID, so the row space splits into
// contiguous shards that workers can size, offset and write independently —
// the same embarrassingly parallel shape GraphTango exploits for batched
// streaming updates.
//
// The parallel paths are representation-preserving: for any input they
// produce the exact same Off/Col/Val bytes and MergeStats as the serial
// algorithm (enforced by TestMergeDifferential). They run in three phases:
//
//  1. size: each shard computes the merged length of every row in its range
//     (a counting replay of the three-way merge) plus a shard total;
//  2. prefix sum: an exclusive scan over the shard totals yields each
//     shard's base offset — O(workers) serial work;
//  3. write: each shard converts its local sizes into absolute offsets and
//     writes its rows into the preallocated Col/Val arrays.
package csr

import (
	"runtime"
	"sort"
	"sync"

	"h2tap/internal/delta"
	"h2tap/internal/mvto"
)

// DefaultWorkers is the worker count the parameterless entry points use:
// GOMAXPROCS, the same default the serial-era Build used for its row gather.
func DefaultWorkers() int {
	if w := runtime.GOMAXPROCS(0); w > 1 {
		return w
	}
	return 1
}

func normWorkers(w int) int {
	if w <= 0 {
		return DefaultWorkers()
	}
	return w
}

// MergeWorkers is Merge with an explicit worker count. workers <= 0 selects
// DefaultWorkers; 1 runs the serial algorithm. The output is byte-identical
// to MergeSerial for every worker count.
func MergeWorkers(old *CSR, batch *delta.Batch, workers int) (*CSR, MergeStats) {
	workers = normWorkers(workers)
	if workers == 1 {
		return MergeSerial(old, batch)
	}
	return mergeParallel(old, batch, workers)
}

func mergeParallel(old *CSR, batch *delta.Batch, workers int) (*CSR, MergeStats) {
	oldN := uint64(old.NumNodes())
	newN := oldN
	for i := range batch.Deltas {
		if id := batch.Deltas[i].Node; id >= newN {
			newN = id + 1
		}
	}
	out := &CSR{Off: make([]int64, newN+1)}
	if newN == 0 {
		out.Col = make([]uint64, 0)
		out.Val = make([]float64, 0)
		return out, MergeStats{}
	}

	chunk := (newN + uint64(workers) - 1) / uint64(workers)
	nShards := int((newN + chunk - 1) / chunk)
	shardLo := func(s int) uint64 { return uint64(s) * chunk }
	shardHi := func(s int) uint64 {
		hi := uint64(s+1) * chunk
		if hi > newN {
			hi = newN
		}
		return hi
	}
	// deltaRange binary-searches the node-sorted batch for the deltas whose
	// nodes fall in [lo, hi).
	deltaRange := func(lo, hi uint64) (int, int) {
		i0 := sort.Search(len(batch.Deltas), func(i int) bool { return batch.Deltas[i].Node >= lo })
		i1 := sort.Search(len(batch.Deltas), func(i int) bool { return batch.Deltas[i].Node >= hi })
		return i0, i1
	}

	// Phase 1: per-row merged sizes (stored temporarily in Off[r+1]) plus
	// per-shard totals and stats.
	totals := make([]int64, nShards)
	stats := make([]MergeStats, nShards)
	var wg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo, hi := shardLo(s), shardHi(s)
			di, dEnd := deltaRange(lo, hi)
			var total int64
			st := &stats[s]
			for r := lo; r < hi; r++ {
				var n int64
				if di < dEnd && batch.Deltas[di].Node == r {
					d := &batch.Deltas[di]
					di++
					var oc []uint64
					if r < oldN {
						oc = old.Col[old.Off[r]:old.Off[r+1]]
						st.RowsModified++
					} else {
						st.RowsAdded++
					}
					n = int64(mergedRowLen(oc, d))
				} else if r < oldN {
					n = old.Off[r+1] - old.Off[r]
					st.RowsCopied++
					st.EdgesCopied += n
				}
				out.Off[r+1] = n
				total += n
			}
			totals[s] = total
		}(s)
	}
	wg.Wait()

	// Phase 2: exclusive prefix sum over shard totals.
	bases := make([]int64, nShards+1)
	for s := 0; s < nShards; s++ {
		bases[s+1] = bases[s] + totals[s]
	}
	total := bases[nShards]
	out.Col = make([]uint64, total)
	out.Val = make([]float64, total)

	// Phase 3: convert local sizes to absolute offsets and write rows.
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo, hi := shardLo(s), shardHi(s)
			di, dEnd := deltaRange(lo, hi)
			at := bases[s]
			for r := lo; r < hi; r++ {
				size := out.Off[r+1]
				if di < dEnd && batch.Deltas[di].Node == r {
					d := &batch.Deltas[di]
					di++
					var oc []uint64
					var ov []float64
					if r < oldN {
						oc = old.Col[old.Off[r]:old.Off[r+1]]
						ov = old.Val[old.Off[r]:old.Off[r+1]]
					}
					// Capacity is exactly the counted size, so the appends
					// write in place.
					MergeRow(out.Col[at:at:at+size], out.Val[at:at:at+size], oc, ov, d)
				} else if size > 0 {
					copy(out.Col[at:at+size], old.Col[old.Off[r]:old.Off[r+1]])
					copy(out.Val[at:at+size], old.Val[old.Off[r]:old.Off[r+1]])
				}
				at += size
				out.Off[r+1] = at
			}
		}(s)
	}
	wg.Wait()

	var st MergeStats
	for s := range stats {
		st.RowsCopied += stats[s].RowsCopied
		st.RowsModified += stats[s].RowsModified
		st.RowsAdded += stats[s].RowsAdded
		st.EdgesCopied += stats[s].EdgesCopied
	}
	st.EdgesMerged = total - st.EdgesCopied
	return out, st
}

// mergedRowLen is the counting replay of MergeRow: the length the merged
// row (old row ∪ inserts, minus deletes) will have, without writing it.
// Any change here must be mirrored in MergeRow.
func mergedRowLen(oc []uint64, d *delta.Combined) int {
	if d.Deleted {
		return 0
	}
	n, i, j, k := 0, 0, 0, 0
	for i < len(oc) || j < len(d.Ins) {
		useOld := j >= len(d.Ins) || (i < len(oc) && oc[i] <= d.Ins[j].Dst)
		if useOld {
			dst := oc[i]
			for k < len(d.Del) && d.Del[k] < dst {
				k++
			}
			if k < len(d.Del) && d.Del[k] == dst {
				i++
				continue
			}
			if j < len(d.Ins) && d.Ins[j].Dst == dst {
				n++
				i++
				j++
				continue
			}
			n++
			i++
			continue
		}
		n++
		j++
	}
	return n
}

// BuildWorkers is Build with an explicit worker count (workers <= 0 selects
// DefaultWorkers). Rows are gathered in parallel, row sizes prefix-summed
// per shard, and rows written in parallel — the same three phases as the
// parallel merge, producing the same bytes at every worker count.
func BuildWorkers(src Snapshot, ts mvto.TS, workers int) *CSR {
	workers = normWorkers(workers)
	n := src.NumNodeSlots()
	rows := make([][]delta.Edge, n)
	c := &CSR{Off: make([]int64, n+1)}
	if n == 0 {
		return c
	}

	chunk := (n + uint64(workers) - 1) / uint64(workers)
	nShards := int((n + chunk - 1) / chunk)
	totals := make([]int64, nShards)
	var wg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo, hi := uint64(s)*chunk, uint64(s+1)*chunk
			if hi > n {
				hi = n
			}
			var total int64
			for id := lo; id < hi; id++ {
				rows[id] = src.OutEdgesAt(id, ts)
				total += int64(len(rows[id]))
			}
			totals[s] = total
		}(s)
	}
	wg.Wait()

	bases := make([]int64, nShards+1)
	for s := 0; s < nShards; s++ {
		bases[s+1] = bases[s] + totals[s]
	}
	c.Col = make([]uint64, bases[nShards])
	c.Val = make([]float64, bases[nShards])

	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo, hi := uint64(s)*chunk, uint64(s+1)*chunk
			if hi > n {
				hi = n
			}
			at := bases[s]
			for id := lo; id < hi; id++ {
				c.Off[id] = at
				for _, e := range rows[id] {
					c.Col[at] = e.Dst
					c.Val[at] = e.W
					at++
				}
			}
		}(s)
	}
	wg.Wait()
	c.Off[n] = bases[nShards]
	return c
}
