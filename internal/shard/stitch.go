package shard

import (
	"fmt"
	"sort"
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
	// slots excluded). Result slices are indexed positionally by it.
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
// graph at a committed prefix of every shard. On a torn cut the lagging
// shards are re-propagated and the acquisition retried.
func (c *Cluster) RunAnalytics(kind htap.AnalyticsKind, src uint64) (*StitchResult, error) {
	return c.RunAnalyticsTraced(kind, src, nil)
}

// RunAnalyticsTraced is RunAnalytics carrying a request trace: each attempt's
// propagate-on-demand freshening records a stitch.propagate span and each
// watermark acquire+verify records a stitch.barrier span, so a stitched
// request stuck retrying torn cuts is attributable from /debug/requests. The
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
		// replica exactly as they do per-shard.
		sp := rq.Span("stitch.propagate", "stitch")
		for i, d := range c.domains {
			if included[i] && !d.Engine().Fresh() {
				d.Engine().Propagate()
			}
		}
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

		res, err := c.stitchAndRun(views, w, kind, class, src)
		release()
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

// stitchAndRun builds the composite CSR from the acquired views and executes
// the kernel on it. Called with every shard's replica pinned.
func (c *Cluster) stitchAndRun(views []analytics.Graph, w []mvto.TS, kind htap.AnalyticsKind, class string, src uint64) (*StitchResult, error) {
	start := time.Now()
	p := c.part

	// Snapshot the ghost registry. Reverse entries are never removed, so a
	// slot that ever held a ghost is reliably excluded even if the ghost was
	// since deleted (its slot is then just a hole, same as any deleted node).
	rev := make([]map[graph.NodeID]uint64, len(views))
	c.ghostMu.RLock()
	for i := range rev {
		rev[i] = make(map[graph.NodeID]uint64, len(c.ghostRev[i]))
		for l, g := range c.ghostRev[i] {
			rev[i][l] = g
		}
	}
	c.ghostMu.RUnlock()

	// Composite vertex set: every non-ghost slot of every shard, by global
	// ID (excluded shards contribute nothing — their views are nil). Holes
	// (deleted or aborted nodes) keep their slot with no edges, matching
	// the single-shard replica's treatment of its own holes.
	var gids []uint64
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
	cidx := make(map[uint64]uint64, len(gids))
	for i, g := range gids {
		cidx[g] = uint64(i)
	}

	// Composite adjacency: each shard contributes the edges it owns, with
	// ghost destinations rewired to the remote vertex. Rows are sorted for
	// deterministic layout.
	type edge struct {
		dst uint64
		w   float64
	}
	rows := make([][]edge, len(gids))
	owned := make([]int64, len(views))
	var edges int64
	for i, g := range gids {
		s, l := p.ShardOf(g), p.Local(g)
		dsts, ws := views[s].Row(uint64(l))
		for k, dst := range dsts {
			gdst, ok := rev[s][graph.NodeID(dst)]
			if !ok {
				gdst = p.Global(s, graph.NodeID(dst))
			}
			ci, ok := cidx[gdst]
			if !ok {
				// An edge into an excluded (Down) shard — its destination is
				// not part of this composite — or, with no exclusions,
				// unreachable under the registry invariant (an edge is only
				// visible after its destination's slot is). Dropped rather
				// than corrupting the composite.
				continue
			}
			rows[i] = append(rows[i], edge{dst: ci, w: ws[k]})
			owned[s]++
			edges++
		}
		sort.Slice(rows[i], func(a, b int) bool { return rows[i][a].dst < rows[i][b].dst })
	}
	comp := &csr.CSR{
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

	// Translate the source. A global ID outside the composite behaves like
	// an out-of-range slot in the single-shard kernels (nothing reached).
	csrc := uint64(len(gids))
	if ci, ok := cidx[src]; ok {
		csrc = ci
	}

	out, err := analytics.Run(analytics.CSRGraph{C: comp}, string(kind), csrc, c.opts.PageRankIters, c.opts.Damping)
	if err != nil {
		return nil, fmt.Errorf("shard: stitched kernel: %w", err)
	}

	res := &StitchResult{
		Kind:       kind,
		Watermark:  append([]mvto.TS(nil), w...),
		GlobalIDs:  gids,
		CSR:        comp,
		Levels:     out.Levels,
		Dists:      out.Dists,
		Ranks:      out.Ranks,
		Comp:       out.Comp,
		Coef:       out.Coef,
		Work:       out.Work,
		Edges:      edges,
		OwnedEdges: owned,
		HostWall:   time.Since(start),
	}

	// Simulated device time: each participating shard launches the kernel
	// over its owned share of the traversed work concurrently; the stitched
	// request is as slow as its slowest shard.
	if edges > 0 {
		for s, d := range c.domains {
			if views[s] == nil {
				continue
			}
			share := out.Work.Edges * float64(owned[s]) / float64(edges)
			kt, err := d.Engine().Device().Launch(class, share)
			if err != nil {
				return nil, fmt.Errorf("shard %d: kernel launch: %w", s, err)
			}
			if kt > res.KernelSim {
				res.KernelSim = kt
			}
		}
	} else {
		for s, d := range c.domains {
			if views[s] == nil {
				continue
			}
			kt, err := d.Engine().Device().Launch(class, 0)
			if err != nil {
				return nil, fmt.Errorf("shard: kernel launch: %w", err)
			}
			res.KernelSim = kt
			break
		}
	}
	return res, nil
}
