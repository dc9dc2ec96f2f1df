// Package analytics implements the graph algorithms of the paper's
// analytical workload — BFS, PageRank and SSSP from LDBC Graphalytics
// (§6.2), plus WCC (§1) — over a common read-only graph view served by
// either replica structure (CSR or the dynamic hash-table graph) or by the
// CPU-side Sortledton structure.
//
// Algorithms compute real results on the host and report their work in
// traversed edges; callers executing "on the GPU" charge that work to the
// simulated device's kernel model (internal/gpu), which is how Table 1's
// GPU analytics times are reproduced.
package analytics

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"h2tap/internal/csr"
)

// Graph is the read-only view the kernels traverse.
type Graph interface {
	// NumVertexSlots reports the vertex ID space (absent slots allowed).
	NumVertexSlots() int
	// Row returns u's out-edges: destinations in ascending order and their
	// weights. An absent or out-of-range vertex has nil rows. The slices
	// are read-only and valid while the view is (the replica pinned).
	Row(u uint64) (dst []uint64, w []float64)
}

// CSRGraph adapts a csr.CSR to the Graph interface.
type CSRGraph struct{ C *csr.CSR }

// NumVertexSlots implements Graph.
func (g CSRGraph) NumVertexSlots() int { return g.C.NumNodes() }

// Row implements Graph.
func (g CSRGraph) Row(u uint64) ([]uint64, []float64) { return g.C.Row(u) }

// WorkStats reports the work a kernel performed, in the units its device
// cost model is calibrated in (traversed/relaxed edges).
type WorkStats struct {
	Edges      float64
	Iterations int
}

// Unreachable is the BFS level of vertices not reached from the source.
const Unreachable int32 = -1

func workers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		return 1
	}
	return w
}

// parallelFor splits [0, n) across workers, passing each range its worker
// index (below workers()). Ranges under 1024 run inline as worker 0.
func parallelFor(n int, fn func(wi, lo, hi int)) {
	w := workers()
	if n < 1024 || w == 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			fn(wi, lo, hi)
		}(lo/chunk, lo, hi)
	}
	wg.Wait()
}

// bfsBuffers are one BFS run's frontier buffers: the current and next
// frontier and each worker's share of the next. Runs recycle them through
// bfsPool, so a run's garbage is little more than its result.
type bfsBuffers struct {
	frontier, next []uint64
	parts          [][]uint64
}

var bfsPool = sync.Pool{New: func() any { return new(bfsBuffers) }}

// BFS computes breadth-first levels from src. Level-synchronous with a
// shared frontier, the standard GPU formulation: a vertex is claimed by
// the CAS that sets its level.
func BFS(g Graph, src uint64) ([]int32, WorkStats) {
	n := g.NumVertexSlots()
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = Unreachable
	}
	if int(src) >= n {
		return levels, WorkStats{}
	}
	levels[src] = 0

	var st WorkStats
	buf := bfsPool.Get().(*bfsBuffers)
	defer bfsPool.Put(buf)
	if w := workers(); len(buf.parts) != w {
		buf.parts = make([][]uint64, w)
	}
	parts := buf.parts
	edges := make([]int64, len(parts))
	frontier, next := append(buf.frontier[:0], src), buf.next
	defer func() { buf.frontier, buf.next = frontier, next }()
	for depth := int32(1); len(frontier) > 0; depth++ {
		st.Iterations++
		for wi := range parts {
			parts[wi], edges[wi] = parts[wi][:0], 0
		}
		parallelFor(len(frontier), func(wi, lo, hi int) {
			local := parts[wi]
			var traversed int64
			for _, u := range frontier[lo:hi] {
				dst, _ := g.Row(u)
				traversed += int64(len(dst))
				for _, v := range dst {
					if atomic.LoadInt32(&levels[v]) == Unreachable &&
						atomic.CompareAndSwapInt32(&levels[v], Unreachable, depth) {
						local = append(local, v)
					}
				}
			}
			parts[wi], edges[wi] = local, traversed
		})
		next = next[:0]
		for wi := range parts {
			st.Edges += float64(edges[wi])
			next = append(next, parts[wi]...)
		}
		frontier, next = next, frontier
	}
	return levels, st
}

// PageRank runs the classic power iteration with the given damping factor
// for a fixed number of iterations (the Graphalytics formulation). Dangling
// mass is redistributed uniformly. Ranks sum to 1 over all vertex slots.
func PageRank(g Graph, iters int, damping float64) ([]float64, WorkStats) {
	n := g.NumVertexSlots()
	if n == 0 {
		return nil, WorkStats{}
	}
	rank := make([]float64, n)
	init := 1.0 / float64(n)
	for i := range rank {
		rank[i] = init
	}
	nextBits := make([]atomic.Uint64, n)
	var st WorkStats

	for it := 0; it < iters; it++ {
		st.Iterations++
		base := (1 - damping) / float64(n)
		var danglingMu sync.Mutex
		var danglingSum float64

		parallelFor(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				nextBits[i].Store(0)
			}
		})
		var edges atomic.Int64
		parallelFor(n, func(_, lo, hi int) {
			var localDangling float64
			var traversed int64
			for u := lo; u < hi; u++ {
				dst, _ := g.Row(uint64(u))
				if len(dst) == 0 {
					localDangling += rank[u]
					continue
				}
				share := damping * rank[u] / float64(len(dst))
				traversed += int64(len(dst))
				for _, v := range dst {
					atomicAddFloat(&nextBits[v], share)
				}
			}
			danglingMu.Lock()
			danglingSum += localDangling
			danglingMu.Unlock()
			edges.Add(traversed)
		})
		st.Edges += float64(edges.Load())
		redistribute := damping * danglingSum / float64(n)
		parallelFor(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				rank[i] = base + redistribute + math.Float64frombits(nextBits[i].Load())
			}
		})
	}
	return rank, st
}

func atomicAddFloat(bits *atomic.Uint64, x float64) {
	for {
		old := bits.Load()
		new_ := math.Float64bits(math.Float64frombits(old) + x)
		if bits.CompareAndSwap(old, new_) {
			return
		}
	}
}

// SSSP computes single-source shortest paths with a frontier-based
// Bellman-Ford (the common GPU formulation). Weights must be non-negative;
// a negative weight panics.
func SSSP(g Graph, src uint64) ([]float64, WorkStats) {
	n := g.NumVertexSlots()
	distBits := make([]atomic.Uint64, n)
	infBits := math.Float64bits(math.Inf(1))
	for i := range distBits {
		distBits[i].Store(infBits)
	}
	if int(src) >= n {
		return distsFrom(distBits), WorkStats{}
	}
	distBits[src].Store(0)
	inNext := make([]atomic.Bool, n)
	frontier := []uint64{src}
	var st WorkStats
	var negEdge atomic.Int64 // packs (src<<32|dst)+1 of an offending edge

	for len(frontier) > 0 {
		st.Iterations++
		next := make([][]uint64, workers())
		var edges atomic.Int64
		var wg sync.WaitGroup
		chunk := (len(frontier) + workers() - 1) / workers()
		if chunk == 0 {
			chunk = 1
		}
		wi := 0
		for lo := 0; lo < len(frontier); lo += chunk {
			hi := lo + chunk
			if hi > len(frontier) {
				hi = len(frontier)
			}
			wg.Add(1)
			go func(wi int, part []uint64) {
				defer wg.Done()
				var local []uint64
				var relaxed int64
			relax:
				for _, u := range part {
					du := math.Float64frombits(distBits[u].Load())
					dst, ws := g.Row(u)
					for i, v := range dst {
						w := ws[i]
						if w < 0 {
							negEdge.Store(int64(u)<<32 | int64(v) + 1)
							break relax
						}
						relaxed++
						cand := du + w
						// Non-negative IEEE floats order like their bit
						// patterns, so CAS-min over bits is a valid
						// relaxation.
						for {
							old := distBits[v].Load()
							if math.Float64frombits(old) <= cand {
								break
							}
							if distBits[v].CompareAndSwap(old, math.Float64bits(cand)) {
								if !inNext[v].Load() && inNext[v].CompareAndSwap(false, true) {
									local = append(local, v)
								}
								break
							}
						}
					}
				}
				next[wi] = local
				edges.Add(relaxed)
			}(wi, frontier[lo:hi])
			wi++
		}
		wg.Wait()
		if e := negEdge.Load(); e != 0 {
			panic(fmt.Sprintf("analytics: SSSP negative weight on %d→%d", (e-1)>>32, (e-1)&0xffffffff))
		}
		st.Edges += float64(edges.Load())
		frontier = frontier[:0]
		for _, part := range next {
			frontier = append(frontier, part...)
		}
		for _, v := range frontier {
			inNext[v].Store(false)
		}
	}
	return distsFrom(distBits), st
}

func distsFrom(bits []atomic.Uint64) []float64 {
	out := make([]float64, len(bits))
	for i := range bits {
		out[i] = math.Float64frombits(bits[i].Load())
	}
	return out
}

// WCC computes weakly connected components (edges treated as undirected)
// via union-find with path halving. Each vertex's component is identified
// by its smallest member ID. Absent slots (degree 0 and untouched) form
// singleton components.
func WCC(g Graph) ([]uint64, WorkStats) {
	n := g.NumVertexSlots()
	parent := make([]uint64, n)
	for i := range parent {
		parent[i] = uint64(i)
	}
	var find func(x uint64) uint64
	find = func(x uint64) uint64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	var st WorkStats
	st.Iterations = 1
	for u := 0; u < n; u++ {
		dst, _ := g.Row(uint64(u))
		st.Edges += float64(len(dst))
		for _, v := range dst {
			ru, rv := find(uint64(u)), find(v)
			if ru != rv {
				if ru < rv {
					parent[rv] = ru
				} else {
					parent[ru] = rv
				}
			}
		}
	}
	comp := make([]uint64, n)
	for i := range comp {
		comp[i] = find(uint64(i))
	}
	return comp, st
}
