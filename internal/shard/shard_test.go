package shard

import (
	"testing"

	"h2tap/internal/htap"
	"h2tap/internal/mvto"
)

func TestPartitionerRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		p := NewPartitioner(n)
		for _, g := range []uint64{0, 1, 2, 15, 255, 1 << 32, 1<<40 + 17} {
			s, l := p.ShardOf(g), p.Local(g)
			if s < 0 || s >= n {
				t.Fatalf("n=%d g=%d: shard %d out of range", n, g, s)
			}
			if back := p.Global(s, l); back != g {
				t.Fatalf("n=%d g=%d: roundtrip gave %d", n, g, back)
			}
		}
		for s := 0; s < n; s++ {
			for l := uint64(0); l < 16; l++ {
				g := p.Global(s, l)
				if p.ShardOf(g) != s || p.Local(g) != l {
					t.Fatalf("n=%d: Global(%d,%d)=%d decodes to (%d,%d)",
						n, s, l, g, p.ShardOf(g), p.Local(g))
				}
			}
		}
	}
}

func TestRegistrySplitsAndPrune(t *testing.T) {
	var r txRegistry
	r.init()

	// Both halves below the cut: consistent.
	r.add(1, map[int]mvto.TS{0: 5, 1: 7})
	r.markDone(1)
	if lag := r.splits([]mvto.TS{6, 8}, nil); lag != nil {
		t.Fatalf("fully covered tx reported lagging shards %v", lag)
	}
	// One half visible, the other not: shard 1 lags.
	if lag := r.splits([]mvto.TS{6, 7}, nil); len(lag) != 1 || lag[0] != 1 {
		t.Fatalf("torn cut: got lagging %v, want [1]", lag)
	}
	// Both halves above the cut: consistent (tx entirely invisible).
	if lag := r.splits([]mvto.TS{5, 7}, nil); lag != nil {
		t.Fatalf("fully excluded tx reported lagging shards %v", lag)
	}

	// Prune only drops entries completely below the watermark.
	r.prune([]mvto.TS{6, 7})
	if r.size() != 1 {
		t.Fatalf("prune at partial cover dropped the entry")
	}
	r.prune([]mvto.TS{6, 8})
	if r.size() != 0 {
		t.Fatalf("prune at full cover kept the entry")
	}

	// In-flight (not done) entries never prune.
	r.add(2, map[int]mvto.TS{0: 1, 1: 1})
	r.prune([]mvto.TS{100, 100})
	if r.size() != 1 {
		t.Fatalf("in-flight entry pruned")
	}
}

// buildStar creates hub plus k spoke nodes and edges hub→spoke, returning
// (hub, spokes). With several shards some edges are cross-shard.
func buildStar(t *testing.T, c *Cluster, k int) (uint64, []uint64) {
	t.Helper()
	tx := c.Begin()
	hub, err := tx.AddNode("Hub", nil)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	spokes := make([]uint64, k)
	for i := range spokes {
		if spokes[i], err = tx.AddNode("Spoke", nil); err != nil {
			t.Fatalf("AddNode: %v", err)
		}
		if _, err := tx.AddRel(hub, spokes[i], "to", 1); err != nil {
			t.Fatalf("AddRel: %v", err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return hub, spokes
}

func TestVolatileClusterStitchedBFS(t *testing.T) {
	c, err := Open(Options{Shards: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()

	hub, spokes := buildStar(t, c, 32)
	res, err := c.RunAnalytics(htap.BFS, hub)
	if err != nil {
		t.Fatalf("RunAnalytics: %v", err)
	}
	if len(res.GlobalIDs) != 33 {
		t.Fatalf("composite has %d vertices, want 33 (ghosts must be excluded)", len(res.GlobalIDs))
	}
	if res.Edges != 32 {
		t.Fatalf("composite has %d edges, want 32", res.Edges)
	}
	lvl := make(map[uint64]int32, len(res.GlobalIDs))
	for i, g := range res.GlobalIDs {
		lvl[g] = res.Levels[i]
	}
	if lvl[hub] != 0 {
		t.Fatalf("hub level %d, want 0", lvl[hub])
	}
	for _, s := range spokes {
		if lvl[s] != 1 {
			t.Fatalf("spoke %d level %d, want 1", s, lvl[s])
		}
	}
	if c.Epoch() != 1 {
		t.Fatalf("epoch %d after one stitch, want 1", c.Epoch())
	}
}

func TestSingleParticipantFastPath(t *testing.T) {
	c, err := Open(Options{Shards: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()

	// A transaction confined to one shard must not consume a 2PC ID.
	tx := c.Begin()
	if _, err := tx.AddNode("N", nil); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if got := len(tx.Participants()); got != 1 {
		t.Fatalf("participants %d, want 1", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if g := c.gtx.Load(); g != 0 {
		t.Fatalf("single-shard commit consumed 2PC id (gtx=%d)", g)
	}
	if c.reg.size() != 0 {
		t.Fatalf("single-shard commit registered with the stitcher")
	}
}

func TestCrossShardAbortLeavesNothing(t *testing.T) {
	c, err := Open(Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()

	// Nodes on both shards, committed.
	setup := c.Begin()
	var byShard [2][]uint64
	for len(byShard[0]) == 0 || len(byShard[1]) == 0 {
		g, err := setup.AddNode("N", nil)
		if err != nil {
			t.Fatalf("AddNode: %v", err)
		}
		byShard[c.part.ShardOf(g)] = append(byShard[c.part.ShardOf(g)], g)
	}
	if err := setup.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	tx := c.Begin()
	if _, err := tx.AddRel(byShard[0][0], byShard[1][0], "x", 1); err != nil {
		t.Fatalf("AddRel: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	res, err := c.RunAnalytics(htap.BFS, byShard[0][0])
	if err != nil {
		t.Fatalf("RunAnalytics: %v", err)
	}
	if res.Edges != 0 {
		t.Fatalf("aborted cross-shard edge visible in composite (%d edges)", res.Edges)
	}
	if c.reg.size() != 0 {
		t.Fatalf("aborted tx still registered")
	}
}

func TestGhostReuseAcrossTransactions(t *testing.T) {
	c, err := Open(Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()

	setup := c.Begin()
	var onShard [2]uint64
	seen := [2]bool{}
	for !seen[0] || !seen[1] {
		g, err := setup.AddNode("N", nil)
		if err != nil {
			t.Fatalf("AddNode: %v", err)
		}
		onShard[c.part.ShardOf(g)] = g
		seen[c.part.ShardOf(g)] = true
	}
	// Second source on shard 0 so two distinct cross edges share the ghost.
	src2 := onShard[0]
	for c.part.ShardOf(src2) != 0 || src2 == onShard[0] {
		g, err := setup.AddNode("N", nil)
		if err != nil {
			t.Fatalf("AddNode: %v", err)
		}
		src2 = g
	}
	if err := setup.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	for _, src := range []uint64{onShard[0], src2} {
		tx := c.Begin()
		if _, err := tx.AddRel(src, onShard[1], "x", 1); err != nil {
			t.Fatalf("AddRel: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	c.ghostMu.RLock()
	ghosts := len(c.ghostFwd[0])
	c.ghostMu.RUnlock()
	if ghosts != 1 {
		t.Fatalf("two edges to one remote node made %d ghosts, want 1", ghosts)
	}
	res, err := c.RunAnalytics(htap.BFS, onShard[0])
	if err != nil {
		t.Fatalf("RunAnalytics: %v", err)
	}
	if res.Edges != 2 {
		t.Fatalf("composite edges %d, want 2", res.Edges)
	}
}

func TestPersistentReopenPreservesCrossShardState(t *testing.T) {
	dir := t.TempDir()
	open := func() *Cluster {
		c, err := Open(Options{Shards: 3, PersistDir: dir, SyncWAL: true})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return c
	}

	c := open()
	hub, spokes := buildStar(t, c, 24)
	before, err := c.RunAnalytics(htap.BFS, hub)
	if err != nil {
		t.Fatalf("RunAnalytics: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c = open()
	defer c.Close()
	if c.gtx.Load() == 0 {
		t.Fatalf("gtx counter not resumed past recovered 2PC ids")
	}
	after, err := c.RunAnalytics(htap.BFS, hub)
	if err != nil {
		t.Fatalf("RunAnalytics after reopen: %v", err)
	}
	if len(after.GlobalIDs) != len(before.GlobalIDs) || after.Edges != before.Edges {
		t.Fatalf("reopen changed composite: %d/%d vertices, %d/%d edges",
			len(after.GlobalIDs), len(before.GlobalIDs), after.Edges, before.Edges)
	}
	lvl := make(map[uint64]int32)
	for i, g := range after.GlobalIDs {
		lvl[g] = after.Levels[i]
	}
	for _, s := range spokes {
		if lvl[s] != 1 {
			t.Fatalf("spoke %d level %d after reopen, want 1", s, lvl[s])
		}
	}
	// Checkpoint then reopen again: rotated logs must still recover.
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c2 := open()
	defer c2.Close()
	again, err := c2.RunAnalytics(htap.BFS, hub)
	if err != nil {
		t.Fatalf("RunAnalytics after checkpointed reopen: %v", err)
	}
	if again.Edges != before.Edges {
		t.Fatalf("checkpointed reopen lost edges: %d, want %d", again.Edges, before.Edges)
	}
}

func TestDeleteNodeCascadesGhostEdges(t *testing.T) {
	c, err := Open(Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Close()

	hub, spokes := buildStar(t, c, 16)
	// Delete a spoke on a different shard than the hub: its incoming
	// cross-shard edge (stored in the hub's shard against a ghost) must go.
	var victim uint64
	found := false
	for _, s := range spokes {
		if c.part.ShardOf(s) != c.part.ShardOf(hub) {
			victim, found = s, true
			break
		}
	}
	if !found {
		t.Skip("no cross-shard spoke with this placement")
	}
	tx := c.Begin()
	if err := tx.DeleteNode(victim); err != nil {
		t.Fatalf("DeleteNode: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	res, err := c.RunAnalytics(htap.BFS, hub)
	if err != nil {
		t.Fatalf("RunAnalytics: %v", err)
	}
	if res.Edges != 15 {
		t.Fatalf("composite edges %d after delete, want 15", res.Edges)
	}
	lvl := make(map[uint64]int32)
	for i, g := range res.GlobalIDs {
		lvl[g] = res.Levels[i]
	}
	if l, ok := lvl[victim]; ok && l != -1 {
		t.Fatalf("deleted node still reachable (level %d)", l)
	}
}
