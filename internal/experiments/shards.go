package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"h2tap"
	"h2tap/internal/htap"
	"h2tap/internal/vfs"
)

// ShardsExp is an extension measuring the sharded engine (DESIGN.md §5h):
// the same randomized transactional load runs against shard counts 1, 2, 4
// and 8, reporting commit throughput (single-shard fast path vs two-phase
// cross-shard commits), the fraction of transactions that crossed shards,
// and stitched cross-shard analytics latency against the single-domain
// baseline. Shards=1 goes through the unsharded engine — the row every
// other row is compared to. Two durable rows then set the two cross-shard
// commit paths side by side: one writer (the other shard only read) against
// two writers (two-phase commit).
func (c Config) ShardsExp() *Table {
	c = c.norm()
	t := &Table{
		ID:    "shards",
		Title: "Sharded engine: 2PC commit cost and stitched analytics vs shard count",
		Columns: []string{"shards", "tx", "cross-tx", "load-wall", "tx/s",
			"bfs-host", "bfs-kernel(sim)", "pr-host", "pr-kernel(sim)"},
	}

	nodes := c.queries(100_000)
	edges := 4 * nodes
	txOps := 8

	sweep := []int{1, 2, 4, 8}
	if c.Shards > 1 {
		sweep = []int{1, c.Shards}
	}
	for _, shards := range sweep {
		rng := rand.New(rand.NewSource(c.Seed))
		db, err := h2tap.Open(h2tap.Options{Shards: shards})
		if err != nil {
			panic(err)
		}

		type rwTx interface {
			AddNode(label string, props map[string]h2tap.Value) (uint64, error)
			AddRel(src, dst uint64, label string, weight float64) (uint64, error)
			Commit() error
		}
		begin := func() rwTx {
			if shards > 1 {
				tx, err := db.BeginSharded()
				if err != nil {
					panic(err)
				}
				return tx
			}
			return db.Begin()
		}
		crossTx := func(ids []uint64) bool {
			if shards <= 1 || db.Cluster() == nil {
				return false
			}
			p := db.Cluster().Partitioner()
			for _, id := range ids[1:] {
				if p.ShardOf(id) != p.ShardOf(ids[0]) {
					return true
				}
			}
			return false
		}

		ids := make([]uint64, 0, nodes)
		seen := make(map[[2]uint64]bool, edges)
		txs, cross := 0, 0
		start := time.Now()

		// Node-loading transactions.
		for len(ids) < nodes {
			tx := begin()
			batch := make([]uint64, 0, txOps)
			for i := 0; i < txOps && len(ids)+len(batch) < nodes; i++ {
				id, err := tx.AddNode("V", nil)
				if err != nil {
					panic(err)
				}
				batch = append(batch, id)
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
			ids = append(ids, batch...)
			txs++
			if crossTx(batch) {
				cross++
			}
		}
		// Edge-loading transactions over random distinct pairs.
		added := 0
		for added < edges {
			tx := begin()
			touched := make([]uint64, 0, 2*txOps)
			for i := 0; i < txOps && added < edges; i++ {
				src := ids[rng.Intn(len(ids))]
				dst := ids[rng.Intn(len(ids))]
				if seen[[2]uint64{src, dst}] {
					continue
				}
				seen[[2]uint64{src, dst}] = true
				if _, err := tx.AddRel(src, dst, "e", 1); err != nil {
					panic(err)
				}
				touched = append(touched, src, dst)
				added++
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
			txs++
			if crossTx(touched) {
				cross++
			}
		}
		loadWall := time.Since(start)

		run := func(kind htap.AnalyticsKind) (time.Duration, time.Duration) {
			res, err := db.RunAnalytics(kind, h2tap.NodeID(ids[0]))
			if err != nil {
				panic(err)
			}
			return res.HostWall, time.Duration(res.KernelSim)
		}
		bfsHost, bfsSim := run(htap.BFS)
		prHost, prSim := run(htap.PageRank)

		t.AddRow(shards, txs, cross, loadWall,
			fmt.Sprintf("%.0f", float64(txs)/loadWall.Seconds()),
			bfsHost, bfsSim, prHost, prSim)
		db.Close()
	}

	crossN := c.queries(20_000)
	for _, twoWriters := range []bool{false, true} {
		wall := durableCrossCommits(crossN, twoWriters)
		label := "2 durable, 1-writer cross"
		if twoWriters {
			label = "2 durable, 2-writer cross"
		}
		t.AddRow(label, crossN, crossN, wall,
			fmt.Sprintf("%.0f", float64(crossN)/wall.Seconds()), "-", "-", "-", "-")
	}
	t.Note("extension experiment (not in the paper): expected shape — transactions that write several shards pay the 2PC prepare/decide round (lower tx/s as shard count grows); stitched analytics stay within a small factor of single-domain (composite build is host-side)")
	t.Note("%s", fmt.Sprintf("load: %d nodes, %d edges, %d ops/tx; Shards=1 is the unsharded engine", nodes, edges, txOps))
	t.Note("durable rows: 2 shards, fsync pinned at %v, %d sequential cross-shard commits each; an edge between shards writes only its source's shard (one writer: one commit record, one flush), a property write on each shard writes two (2PC: two prepares, the coordinator decision, two local decisions)", gcFsyncLatency, crossN)
	return t
}

// durableCrossCommits times n sequential cross-shard commits on a durable
// two-shard cluster whose flush is pinned at gcFsyncLatency. Each commit
// either adds an edge between nodes on different shards (it writes only the
// source's shard) or sets a property on a node of each shard (two writers).
func durableCrossCommits(n int, twoWriters bool) time.Duration {
	dir, err := os.MkdirTemp("", "h2tap-shards-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	db, err := h2tap.Open(h2tap.Options{Shards: 2, PersistDir: dir, SyncWAL: true,
		FS: vfs.SlowSync(vfs.OS(), gcFsyncLatency)})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	commit := func(fn func(tx *h2tap.ClusterTx) error) {
		tx, err := db.BeginSharded()
		if err == nil {
			err = fn(tx)
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			panic(err)
		}
	}

	p := db.Cluster().Partitioner()
	var byShard [2][]uint64
	commit(func(tx *h2tap.ClusterTx) error {
		for len(byShard[0]) < n || len(byShard[1]) < n {
			g, err := tx.AddNode("V", nil)
			if err != nil {
				return err
			}
			byShard[p.ShardOf(g)] = append(byShard[p.ShardOf(g)], g)
		}
		return nil
	})
	start := time.Now()
	for i := 0; i < n; i++ {
		a, b := byShard[0][i], byShard[1][i]
		commit(func(tx *h2tap.ClusterTx) error {
			if !twoWriters {
				_, err := tx.AddRel(a, b, "e", 1)
				return err
			}
			if err := tx.SetNodeProp(a, "i", h2tap.Int(int64(i))); err != nil {
				return err
			}
			return tx.SetNodeProp(b, "i", h2tap.Int(int64(i)))
		})
	}
	return time.Since(start)
}
