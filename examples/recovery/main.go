// Recovery: the §6.5 persistent delta store scenario. Updates are captured
// into a PMem-resident DELTA_FE store and the replica CSR keeps a
// persistent recovery copy; after a crash, both recover instantly — the
// delta store resumes exactly where it left off (consumed deltas stay
// consumed, pending ones stay pending) and the CSR is loaded rather than
// rebuilt.
//
// This example drives the internal packages directly: the persistent delta
// store and CSR copy are the paper's §6.5 mechanism, which the experiments
// measure. The h2tap facade's durable mode (Options.PersistDir) does not use
// them; it recovers from its write-ahead log.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"h2tap/internal/csr"
	"h2tap/internal/delta"
	"h2tap/internal/deltastore"
	"h2tap/internal/graph"
	"h2tap/internal/ldbc"
	"h2tap/internal/mvto"
	"h2tap/internal/pmem"
	"h2tap/internal/sim"
)

func main() {
	dir, err := os.MkdirTemp("", "h2tap-recovery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	poolPath := filepath.Join(dir, "store.pool")

	// ---- Session 1: run, propagate part of the stream, then "crash". ----
	pool, err := pmem.Create(poolPath, 16<<20, sim.DefaultPMem())
	if err != nil {
		log.Fatal(err)
	}
	ds, err := deltastore.NewPersistent(pool)
	if err != nil {
		log.Fatal(err)
	}

	g := graph.NewStore()
	data := ldbc.GenerateSNB(ldbc.SNBConfig{SF: 1, Downscale: 50, Seed: 3})
	loadTS, err := data.Load(g)
	if err != nil {
		log.Fatal(err)
	}
	g.AddCapturer(ds)
	replica := csr.Build(g, loadTS)
	fmt.Printf("session 1: loaded %d nodes / %d edges, replica built\n",
		g.LiveNodes(), g.LiveRels())

	// Commit some updates...
	mid := commitUpdates(g, data, 0, 300)
	// ...propagate them (consumes their deltas, persists invalidation)...
	tp := g.Oracle().Begin()
	batch := ds.Scan(tp.TS())
	replica, _ = csr.Merge(replica, batch)
	tp.Commit()
	csrOff, err := csr.PersistTo(pool, replica) // the §6.5 recovery copy
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 1: propagated %d deltas, persisted CSR copy (%d B of media time charged: %v)\n",
		batch.Records, replica.Bytes(), time.Duration(pool.SimTime()).Round(time.Microsecond))

	// ...commit MORE updates that never get propagated before the crash.
	_ = commitUpdates(g, data, mid, 200)
	pending := ds.Records() // includes consumed ones; pending = valid subset
	fmt.Printf("session 1: %d total delta records in store, crash now ☠\n", pending)
	// Simulated crash: the process state (volatile twin, replica, main
	// graph DRAM copy) is gone. Only the pool file survives.
	_ = pool.Close()

	// ---- Session 2: recover. ----
	t0 := time.Now()
	pool2, err := pmem.Open(poolPath, sim.DefaultPMem())
	if err != nil {
		log.Fatal(err)
	}
	defer pool2.Close()
	ds2, err := deltastore.OpenPersistent(pool2)
	if err != nil {
		log.Fatal(err)
	}
	recovered, err := csr.LoadPersistent(pool2, csrOff)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 2: recovered delta store (%d records) and CSR (%d nodes, %d edges) in %v\n",
		ds2.Records(), recovered.NumNodes(), recovered.NumEdges(),
		time.Since(t0).Round(time.Microsecond))

	// Apply the deltas that were pending at crash time: the replica
	// catches up without a rebuild. Consumed deltas stay consumed — the
	// persisted validity flags guarantee exactly-once application.
	batch2 := ds2.Scan(mvto.TS(1 << 40))
	caughtUp, _ := csr.Merge(recovered, batch2)
	fmt.Printf("session 2: applied %d pending deltas after recovery\n", batch2.Records)

	if err := caughtUp.Validate(); err != nil {
		log.Fatalf("recovered replica invalid: %v", err)
	}
	fmt.Printf("session 2: replica valid — %d edges after catch-up ✓\n", caughtUp.NumEdges())
	fmt.Println("\n(the alternative without §6.5 persistence: rebuild the CSR from scratch on every restart)")
}

// commitUpdates inserts likes edges person→post through transactions and
// returns the next offset into the person list.
func commitUpdates(g *graph.Store, data *ldbc.Dataset, from, n int) int {
	i := from
	for done := 0; done < n; i++ {
		p := data.Persons[i%len(data.Persons)]
		post := data.Posts[(i*13)%len(data.Posts)]
		tx := g.Begin()
		if _, err := tx.AddRel(p, post, "likes", 1); err != nil {
			tx.Abort()
			continue
		}
		if err := tx.Commit(); err == nil {
			done++
		}
	}
	return i
}

var _ = delta.Edge{} // keep the delta types in view for readers of this example
