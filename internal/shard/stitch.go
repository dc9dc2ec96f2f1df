package shard

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"h2tap/internal/analytics"
	"h2tap/internal/csr"
	"h2tap/internal/graph"
	"h2tap/internal/htap"
	"h2tap/internal/mvto"
	"h2tap/internal/obs"
	"h2tap/internal/sim"
)

// StitchResult is the outcome of one cross-shard analytics request executed
// on a stitched composite view.
type StitchResult struct {
	Kind htap.AnalyticsKind
	// Watermark is the per-shard freshness vector the composite was cut at:
	// the view contains exactly the transactions with local timestamp below
	// Watermark[s] in each shard, and the registry verified the cut splits no
	// cross-shard transaction.
	Watermark []mvto.TS
	// Epoch is the composite-view epoch this stitch produced.
	Epoch uint64
	// Excluded lists the Down shards this stitch left out (ascending; nil
	// when the whole cluster participated). The composite is the logical
	// graph restricted to the healthy shards: vertices homed on excluded
	// shards are absent and cross-shard edges into them are dropped.
	Excluded []int
	// GlobalIDs lists the composite's vertices (ascending global IDs; ghost
	// slots excluded). Result slices are indexed positionally by it. It is
	// read-only: stitches over the same vertex set share one slice.
	GlobalIDs []uint64
	// CSR is the stitched composite adjacency over the GlobalIDs index
	// space (consistency checks, debugging).
	CSR    *csr.CSR
	Levels []int32
	Dists  []float64
	Ranks  []float64
	Comp   []uint64
	Coef   []float64
	Work   analytics.WorkStats
	// Edges is the composite edge count; OwnedEdges its per-shard split by
	// edge owner.
	Edges      int64
	OwnedEdges []int64
	// KernelSim is the simulated device time: each shard's device executes
	// the kernel over its owned share concurrently, so the stitched kernel
	// finishes with the slowest shard.
	KernelSim sim.Duration
	// HostWall measures the host-side stitch + kernel execution.
	HostWall time.Duration
	// Attempts counts watermark acquisitions until a consistent cut.
	Attempts int
}

// stitchAttempts bounds the propagate→acquire→verify retry loop.
const stitchAttempts = 256

// RunAnalytics executes one analytics request over the whole cluster.
//
// It acquires every shard's replica (ascending shard order), checks the
// resulting watermark vector against the cross-transaction registry, and —
// if no committed cross-shard transaction is split by the cut — stitches the
// per-shard views into one composite graph keyed by global ID: ghost slots
// are dropped from the vertex set and edges pointing at ghosts are rewired
// to the real remote vertex. The composite is therefore exactly the logical
// graph at a committed prefix of every shard. The composite is a private
// copy, so every replica is released before the kernel runs. On a torn cut
// the lagging shards are re-propagated and the acquisition retried.
func (c *Cluster) RunAnalytics(kind htap.AnalyticsKind, src uint64) (*StitchResult, error) {
	return c.RunAnalyticsTraced(kind, src, nil)
}

// RunAnalyticsTraced is RunAnalytics carrying a request trace: each attempt's
// propagate-on-demand freshening records a stitch.propagate span and each
// watermark acquire+verify records a stitch.barrier span, so a stitched
// request stuck retrying torn cuts is attributable from /debug/requests; the
// pinned composite build records a stitch.build span. The
// per-request span cap bounds what a pathological retry loop can record. rq
// may be nil.
func (c *Cluster) RunAnalyticsTraced(kind htap.AnalyticsKind, src uint64, rq *obs.Req) (*StitchResult, error) {
	if err := c.StartEngines(); err != nil {
		return nil, err
	}
	class, ok := htap.KernelClass(kind)
	if !ok {
		return nil, fmt.Errorf("%w: %q", htap.ErrUnknownAnalytics, kind)
	}

	for attempt := 1; attempt <= stitchAttempts; attempt++ {
		// Down shards are excluded from this attempt: the stitch serves the
		// healthy subgraph rather than failing the whole request. Health is
		// re-read per attempt so a quarantine (or recovery) landing between
		// retries takes effect.
		included := make([]bool, len(c.domains))
		var excluded []int
		for i, d := range c.domains {
			if st, _ := d.Health(); st == ShardDown {
				excluded = append(excluded, i)
				continue
			}
			included[i] = true
		}
		if len(excluded) == len(c.domains) {
			return nil, fmt.Errorf("shard: every shard is down: %w", ErrShardDown)
		}

		// Freshen anything stale before cutting (mirrors the single-shard
		// RunAnalytics contract: analytics see updates that arrived before
		// the request). Propagation failures degrade to the last-good
		// replica exactly as they do per-shard. The shards' engines share
		// no lock, so each shard is freshened on its own goroutine.
		sp := rq.Span("stitch.propagate", "stitch")
		var fresh sync.WaitGroup
		for i, d := range c.domains {
			if included[i] {
				fresh.Add(1)
				go func() {
					defer fresh.Done()
					if !d.Engine().Fresh() {
						d.Engine().Propagate()
					}
				}()
			}
		}
		fresh.Wait()
		sp.End()

		sp = rq.Span("stitch.barrier", "stitch")
		views := make([]analytics.Graph, len(c.domains))
		w := make([]mvto.TS, len(c.domains))
		releases := make([]func(), 0, len(c.domains))
		for i, d := range c.domains {
			if !included[i] {
				continue
			}
			var rel func()
			views[i], w[i], rel = d.Engine().AcquireReplica()
			releases = append(releases, rel)
		}
		release := func() {
			for i := len(releases) - 1; i >= 0; i-- {
				releases[i]()
			}
		}

		lagging := c.reg.splits(w, included)
		sp.End()
		if lagging != nil {
			release()
			// A lagging shard's replica stops short of a transaction another
			// shard already shows. Re-propagate those shards and retry; if
			// the missing half has not published yet, the next attempts wait
			// it out.
			sp = rq.Span("stitch.propagate", "stitch")
			for _, s := range lagging {
				c.domains[s].Engine().Propagate()
			}
			sp.End()
			time.Sleep(100 * time.Microsecond)
			continue
		}

		// The composite is a private copy: build it pinned, then unpin every
		// shard before the kernel, so no shard's propagation waits on it.
		start := time.Now()
		sp = rq.Span("stitch.build", "stitch")
		var prev []uint64
		if p := c.lastGids.Load(); p != nil {
			prev = *p
		}
		comp, err := buildComposite(c.part, views, c.forEachGhost, prev)
		sp.End()
		release()
		if err != nil {
			return nil, err
		}
		if c.afterUnpin != nil {
			c.afterUnpin()
		}
		res, err := c.runComposite(comp, included, w, kind, class, src, start)
		gids := comp.gids
		c.lastGids.Store(&gids)
		comp.release()
		if err != nil {
			return nil, err
		}
		res.Attempts = attempt
		res.Excluded = excluded
		c.reg.prune(w)
		res.Epoch = c.epoch.Add(1)
		return res, nil
	}
	return nil, fmt.Errorf("shard: no consistent watermark cut after %d attempts", stitchAttempts)
}

// composite is the stitched logical graph over the included shards, in
// ascending global-ID order.
type composite struct {
	gids  []uint64 // composite index -> global ID
	csr   *csr.CSR
	owned []int64 // kept edges per owning shard
	// index maps a global ID to its composite index; negative entries are
	// not composite vertices (see buildComposite).
	index []int32
}

// vertex translates global ID g to its composite index. A ghost slot,
// padding, an excluded shard's vertex or an out-of-range ID is absent.
func (c *composite) vertex(g uint64) (uint64, bool) {
	if g < uint64(len(c.index)) && c.index[g] >= 0 {
		return uint64(c.index[g]), true
	}
	return 0, false
}

// buildComposite stitches the per-shard views into one composite CSR keyed
// by global ID. views[s] is nil for an excluded shard; ghosts enumerates the
// ghost registry as (shard, local slot, global ID) triples; prev, an
// earlier composite's vertex list, is shared when equal (new edges and
// ghosts leave it so). The result shares no memory with the views.
//
// Since g = local·N + shard, walking local slots and then shards visits the
// global IDs in ascending order, so one dense []int32 over
// max(NumVertexSlots)·N positions is the whole index. During the build an
// entry is:
//   - 0 before the walk, then the composite index, for a non-ghost slot a
//     shard's view covers;
//   - -1 for padding, an excluded shard's slot or a ghost whose global ID
//     is past int32;
//   - -2-t for a ghost slot standing in for the vertex at position t; an
//     edge into it takes t's entry, and is dropped unless that is a
//     composite index.
//
// Holes (deleted or aborted nodes) keep their slot with no edges, matching
// the single-shard replica's treatment of its own holes. Each shard
// contributes the edges it owns, with ghost destinations rewired to the
// remote vertex; an edge whose destination is not in the composite (an
// excluded shard's vertex, or a slot past its view) is dropped.
func buildComposite(p Partitioner, views []analytics.Graph, ghosts func(func(s int, local graph.NodeID, gid uint64)), prev []uint64) (*composite, error) {
	n := uint64(p.Shards())
	slots := make([]uint64, len(views))
	var width uint64
	for s, v := range views {
		if v != nil {
			slots[s] = uint64(v.NumVertexSlots())
			width = max(width, slots[s])
		}
	}
	index := growIndex(*indexPool.Get().(*[]int32), width*n)
	ghosts(func(s int, l graph.NodeID, g uint64) {
		if views[s] == nil {
			return
		}
		pos := p.Global(s, l)
		if pos >= uint64(len(index)) {
			// A ghost past every view: only a row reaching past its own
			// view can name it.
			index = growIndex(index, (l+1)*n)
		}
		index[pos] = -1
		if g <= math.MaxInt32-2 {
			index[pos] = -2 - int32(g)
		}
	})
	if len(index) > math.MaxInt32 {
		return nil, fmt.Errorf("shard: composite index of %d slots exceeds int32", len(index))
	}
	width = uint64(len(index)) / n

	// The first walk numbers the vertices and bounds the edge count, so the
	// result arrays are allocated at their final size.
	var vertices, edges int
	same := true
	for l := uint64(0); l < width; l++ {
		for s, v := range views {
			pos := l*n + uint64(s)
			switch {
			case index[pos] < 0: // ghost
			case v != nil && l < slots[s]:
				index[pos] = int32(vertices)
				same = same && vertices < len(prev) && prev[vertices] == pos
				vertices++
				dsts, _ := v.Row(l)
				edges += len(dsts)
			default:
				index[pos] = -1
			}
		}
	}

	// A second walk in the same order writes the rows: every vertex's
	// composite index is known by now.
	gids := prev
	fill := !same || vertices != len(prev)
	if fill {
		gids = make([]uint64, 0, vertices)
	}
	comp := &csr.CSR{
		Off: make([]int64, 1, vertices+1),
		Col: make([]uint64, 0, edges),
		Val: make([]float64, 0, edges),
	}
	owned := make([]int64, len(views))
	for l := uint64(0); l < width; l++ {
		for s, v := range views {
			pos := l*n + uint64(s)
			if index[pos] < 0 {
				continue
			}
			if fill {
				gids = append(gids, pos)
			}
			dsts, ws := v.Row(l)
			start, sorted := len(comp.Col), true
			for k, dst := range dsts {
				if dst >= width {
					break // rows ascend: the rest are past the index too
				}
				ci := index[dst*n+uint64(s)]
				if ci <= -2 {
					if t := uint64(-2 - ci); t < uint64(len(index)) {
						ci = index[t]
					} else {
						ci = -1
					}
				}
				if ci < 0 {
					continue
				}
				if end := len(comp.Col); end > start && comp.Col[end-1] > uint64(ci) {
					sorted = false
				}
				comp.Col = append(comp.Col, uint64(ci))
				comp.Val = append(comp.Val, ws[k])
			}
			if !sorted {
				sortRow(comp.Col[start:], comp.Val[start:])
			}
			owned[s] += int64(len(comp.Col) - start)
			comp.Off = append(comp.Off, int64(len(comp.Col)))
		}
	}
	return &composite{gids: gids, csr: comp, owned: owned, index: index}, nil
}

// indexPool recycles composite indexes: unlike the result arrays, an index
// is private and dead once the kernel has its source vertex.
var indexPool = sync.Pool{New: func() any { return new([]int32) }}

// growIndex extends index to n entries, the new ones zero.
func growIndex(index []int32, n uint64) []int32 {
	old := len(index)
	index = slices.Grow(index, int(n)-old)[:n]
	clear(index[old:])
	return index
}

// release returns the index to indexPool; vertex no longer works after it.
func (c *composite) release() {
	index := c.index[:0]
	c.index = nil
	indexPool.Put(&index)
}

// sortRow sorts one composite row by destination, carrying the weights: an
// in-place heapsort, O(k log k) whatever order the ghost rewiring left.
func sortRow(col []uint64, val []float64) {
	for i := len(col)/2 - 1; i >= 0; i-- {
		siftDown(col, val, i, len(col))
	}
	for end := len(col) - 1; end > 0; end-- {
		col[0], col[end] = col[end], col[0]
		val[0], val[end] = val[end], val[0]
		siftDown(col, val, 0, end)
	}
}

func siftDown(col []uint64, val []float64, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && col[child] < col[child+1] {
			child++
		}
		if col[root] >= col[child] {
			return
		}
		col[root], col[child] = col[child], col[root]
		val[root], val[child] = val[child], val[root]
		root = child
	}
}

// forEachGhost enumerates the ghost registry under its read lock. Reverse
// entries are never removed, so a slot that ever held a ghost is reliably
// excluded even if the ghost was since deleted (its slot is then just a
// hole, same as any deleted node).
func (c *Cluster) forEachGhost(fn func(s int, local graph.NodeID, gid uint64)) {
	c.ghostMu.RLock()
	defer c.ghostMu.RUnlock()
	for s, rev := range c.ghostRev {
		for l, g := range rev {
			fn(s, l, g)
		}
	}
}

// runComposite executes the kernel on a built composite. No shard is
// pinned: the composite shares no memory with the replicas.
func (c *Cluster) runComposite(comp *composite, included []bool, w []mvto.TS, kind htap.AnalyticsKind, class string, src uint64, start time.Time) (*StitchResult, error) {
	// A global ID outside the composite behaves like an out-of-range slot
	// in the single-shard kernels (nothing reached).
	csrc, ok := comp.vertex(src)
	if !ok {
		csrc = uint64(len(comp.gids))
	}
	out, err := analytics.Run(analytics.CSRGraph{C: comp.csr}, string(kind), csrc, c.opts.PageRankIters, c.opts.Damping)
	if err != nil {
		return nil, fmt.Errorf("shard: stitched kernel: %w", err)
	}

	res := &StitchResult{
		Kind:       kind,
		Watermark:  append([]mvto.TS(nil), w...),
		GlobalIDs:  comp.gids,
		CSR:        comp.csr,
		Levels:     out.Levels,
		Dists:      out.Dists,
		Ranks:      out.Ranks,
		Comp:       out.Comp,
		Coef:       out.Coef,
		Work:       out.Work,
		Edges:      comp.csr.NumEdges(),
		OwnedEdges: comp.owned,
		HostWall:   time.Since(start),
	}

	// Simulated device time: each participating shard launches the kernel
	// over its owned share of the traversed work concurrently; the stitched
	// request is as slow as its slowest shard.
	for s, d := range c.domains {
		if !included[s] {
			continue
		}
		if res.Edges == 0 {
			kt, err := d.Engine().Device().Launch(class, 0)
			if err != nil {
				return nil, fmt.Errorf("shard: kernel launch: %w", err)
			}
			res.KernelSim = kt
			break
		}
		share := out.Work.Edges * float64(comp.owned[s]) / float64(res.Edges)
		kt, err := d.Engine().Device().Launch(class, share)
		if err != nil {
			return nil, fmt.Errorf("shard %d: kernel launch: %w", s, err)
		}
		res.KernelSim = max(res.KernelSim, kt)
	}
	return res, nil
}
