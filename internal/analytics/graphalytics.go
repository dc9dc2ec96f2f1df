package analytics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// CDLP runs community detection by label propagation (the LDBC Graphalytics
// CDLP algorithm): every vertex starts in its own community; each iteration
// every vertex adopts the most frequent community label among its
// out-neighbors, smallest label winning ties. Runs for a fixed number of
// iterations, synchronously (all vertices update from the previous round's
// labels).
func CDLP(g Graph, iters int) ([]uint64, WorkStats) {
	n := g.NumVertexSlots()
	labels := make([]uint64, n)
	for i := range labels {
		labels[i] = uint64(i)
	}
	next := make([]uint64, n)
	var st WorkStats

	for it := 0; it < iters; it++ {
		st.Iterations++
		var edges atomic.Int64
		parallelFor(n, func(_, lo, hi int) {
			counts := make(map[uint64]int)
			var traversed int64
			for u := lo; u < hi; u++ {
				dst, _ := g.Row(uint64(u))
				if len(dst) == 0 {
					next[u] = labels[u]
					continue
				}
				clear(counts)
				traversed += int64(len(dst))
				for _, v := range dst {
					counts[labels[v]]++
				}
				best, bestCount := labels[u], 0
				for lbl, c := range counts {
					if c > bestCount || (c == bestCount && lbl < best) {
						best, bestCount = lbl, c
					}
				}
				next[u] = best
			}
			edges.Add(traversed)
		})
		st.Edges += float64(edges.Load())
		labels, next = next, labels
	}
	return labels, st
}

// LCC computes each vertex's local clustering coefficient over its
// out-neighborhood: the fraction of ordered neighbor pairs (v, w) with an
// edge v→w, i.e. |{(v,w) : v,w ∈ N(u), v→w}| / (d(u)·(d(u)−1)). Vertices
// with out-degree < 2 get coefficient 0 (the Graphalytics convention).
//
// Work is counted as neighbor-pair probes, the quantity the GPU kernel's
// throughput model is calibrated in.
func LCC(g Graph) ([]float64, WorkStats) {
	n := g.NumVertexSlots()
	coef := make([]float64, n)

	var probes atomic.Int64
	var wg sync.WaitGroup
	w := workers()
	chunk := (n + w - 1) / w
	if chunk == 0 {
		chunk = 1
	}
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var local int64
			for u := lo; u < hi; u++ {
				nbrs, _ := g.Row(uint64(u))
				d := len(nbrs)
				if d < 2 {
					continue
				}
				links := 0
				for _, v := range nbrs {
					// Rows are sorted, so edge-existence probes are binary
					// searches.
					vAdj, _ := g.Row(v)
					for _, w := range nbrs {
						if w == v {
							continue
						}
						local++
						i := sort.Search(len(vAdj), func(i int) bool { return vAdj[i] >= w })
						if i < len(vAdj) && vAdj[i] == w {
							links++
						}
					}
				}
				coef[u] = float64(links) / float64(d*(d-1))
			}
			probes.Add(local)
		}(lo, hi)
	}
	wg.Wait()
	return coef, WorkStats{Edges: float64(probes.Load()), Iterations: 1}
}
