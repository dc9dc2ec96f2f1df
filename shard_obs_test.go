package h2tap

import "testing"

// TestShardCommitPathMetrics checks h2tap_shard_commits_total: each way a
// cluster transaction can commit counts under its own path label.
func TestShardCommitPathMetrics(t *testing.T) {
	o := NewObserver()
	db, err := Open(Options{Shards: 2, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	commit := func(fn func(tx *ClusterTx) error) {
		t.Helper()
		tx, err := db.BeginSharded()
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Two writers: nodes are placed until both shards hold one.
	p := db.Cluster().Partitioner()
	var onShard [2]uint64
	var seen [2]bool
	commit(func(tx *ClusterTx) error {
		for !seen[0] || !seen[1] {
			g, err := tx.AddNode("N", nil)
			if err != nil {
				return err
			}
			onShard[p.ShardOf(g)], seen[p.ShardOf(g)] = g, true
		}
		return nil
	})
	// One writer: the edge lives with its source; the destination's shard
	// is only read.
	commit(func(tx *ClusterTx) error {
		_, err := tx.AddRel(onShard[0], onShard[1], "x", 1)
		return err
	})
	// Single: one shard touched.
	commit(func(tx *ClusterTx) error { return tx.SetNodeProp(onShard[1], "k", Int(1)) })

	for _, path := range []string{"single", "one_writer", "two_phase"} {
		name := `h2tap_shard_commits_total{path="` + path + `"}`
		if got := metricValue(t, o, name); got != 1 {
			t.Errorf("%s = %v, want 1", name, got)
		}
	}
}
