package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"h2tap"
)

const (
	shardCount     = 4
	shardNodes     = 20_000
	shardSeedBatch = 500   // nodes per seeding transaction
	shardRate      = 200.0 // commits per client per nominal second, under what the pinned device sustains
	shardPoolSize  = 16 << 20
	crossPercent   = 25
	shardReopens   = 5           // readings of recover_s a set
	shardWarmUp    = time.Second // both cores busy before every set: see warmCores
	// shardReadGroup is the background reader's group here: the seeded nodes
	// have an edge or none, a walk is 0.7 µs, and a group of readGroup walks
	// was 11 µs taken just after a timer wake-up (ten-seed spread up to 0.11).
	shardReadGroup = 128
)

// shardTx is one scripted single-AddRel transaction.
type shardTx struct {
	src, dst uint64
	cross    bool
}

// shardClient adds the sharded ledger to a client recorder.
type shardClient struct {
	*client
	single, cross *samples
	participants  int64
	acked         []shardTx
}

// runShard2PC: four durable shards; 2 closed-loop clients of single-AddRel
// transactions, 75 % within one shard (single-participant fast path) and
// 25 % across two (2PC: prepares plus the coordinator decision), beside an
// analyst running stitched BFS in a closed loop with zero think time, as on
// htap-*; then close and reopen shardReopens times. The analyst is a
// goroutine of its own because a stitched BFS issued from a committing client
// every few commits starts on a core that has just slept through an fsync:
// the same seed read 6.6 and 8.2 ms analytics_p50_ms from run to run, and
// ten-seed spreads of 0.15 to 0.3 on a busier box. Back to back the calls
// keep their core (the committers sleep in the device four fifths of the
// time), about 450 a set support the p95, and the spreads are 0.03 to 0.06.
func runShard2PC(c *runCtx) {
	perClient := c.n(shardRate, 20)
	nodes := shardNodes
	if c.smoke() {
		nodes = shardNodes / 10
	}
	for set := 0; set < c.runSets(); set++ {
		c.shardSet(set, nodes, perClient)
	}
}

func (c *runCtx) shardSet(set, nodes, perClient int) {
	dir := filepath.Join(c.workDir, fmt.Sprintf("shard-%d-%v", set, c.trace))
	defer os.RemoveAll(dir)
	if !c.smoke() {
		warmCores(shardWarmUp)
	}
	fs := c.durableFS()
	opts := h2tap.Options{Shards: shardCount, PersistDir: dir, PersistPoolSize: c.poolSize(shardPoolSize), SyncWAL: true, FS: fs}

	// Set-up: open, seed the nodes through cluster transactions (a sharded
	// database has no bulk load), start the per-shard engines.
	scs := make([]*shardClient, clients)
	for i := range scs {
		scs[i] = &shardClient{client: newClient(i, perClient, 0, c.trace, false),
			single: newSamples(perClient), cross: newSamples(perClient / 2)}
	}
	heap0 := liveHeap() // also: every set-up starts from a collected heap
	t0 := now()
	db, err := h2tap.Open(opts)
	c.must(err, "open sharded")
	byShard := make([][]uint64, shardCount)
	for done := 0; done < nodes; done += shardSeedBatch {
		tx, err := db.BeginSharded()
		c.must(err, "begin sharded")
		for i := 0; i < shardSeedBatch && done+i < nodes; i++ {
			id, err := tx.AddNode("Person", nil)
			c.must(err, "seed node")
			byShard[id%shardCount] = append(byShard[id%shardCount], id)
		}
		c.must(tx.Commit(), "seed commit")
	}
	t1 := now()
	c.must(db.StartEngine(), "start engines")
	t2 := now()
	scripts := shardScripts(rand.New(rand.NewSource(c.seed*71+int64(set))), byShard, perClient)
	t3 := now()
	c.setups = append(c.setups, setupTimes{generate: float64(t3-t2) / 1e9, load: float64(t1-t0) / 1e9, engine: float64(t2-t1) / 1e9})
	heapSetup := c.heapIfTraced()

	src := byShard[0][:16]
	// Reads: a neighbour walk on shard 0's own store (ClusterTx has no
	// adjacency read), over the nodes seeded there, beside the commits.
	store0 := db.Cluster().Domain(0).Store()
	locals := make([]uint64, len(byShard[0]))
	for i, g := range byShard[0] {
		locals[i] = g / shardCount
	}
	stopReader := startReader(func() *h2tap.Tx { return store0.Begin() }, locals, shardReadGroup)
	fs0, k0 := fs.snapshot(), readCounters(db)
	w := window{start: now()}
	var committing, analysing sync.WaitGroup
	var done atomic.Bool
	analysing.Add(1)
	go func() { // the analyst
		defer analysing.Done()
		for i := 0; !done.Load(); i++ {
			c.stitchedBFS(db, src[i%len(src)])
		}
	}()
	for i, sc := range scs {
		committing.Add(1)
		go func(i int, sc *shardClient) {
			defer committing.Done()
			for j := range scripts[i] {
				sc.addRel(db, &scripts[i][j])
			}
		}(i, sc)
	}
	committing.Wait()
	done.Store(true)
	analysing.Wait()
	w.end = now()
	c.mergeClient(stopReader())
	c.closeDurableWindow(w, db, fs, fs0, k0)
	c.noteHeap(heap0, heapSetup)
	var acked []shardTx
	for _, sc := range scs {
		c.mergeClient(sc.client)
		c.singleShd.merge(sc.single)
		c.crossShrd.merge(sc.cross)
		c.participants += sc.participants
		acked = append(acked, sc.acked...)
	}
	c.endSet()
	c.ghostNodes += db.Stats().GhostNodes
	c.verifyShards(db, nodes, acked, "before close")
	if c.trace {
		c.probeCrossCommit(db, fs, byShard)
		acked = append(acked, c.probeAcked...)
		c.probeAcked = nil
	}

	// Reopen shardReopens times, each a reading of recover_s: one reopen is a
	// tenth of a second, a single reading per set spread up to 0.2 over ten
	// seeds, and a reopen without a checkpoint leaves the logs it replays as
	// they were, so every reopen does the same work.
	var rec float64
	for i := 0; i < shardReopens; i++ {
		c.must(db.Close(), "close")
		db = nil
		runtime.GC() // a restarted process does not collect its predecessor's heap
		t4 := now()
		db, err = h2tap.Open(opts)
		c.must(err, "reopen sharded")
		c.must(db.StartEngine(), "restart engines")
		rec = float64(now()-t4) / 1e9
		c.recover = append(c.recover, rec)
	}
	c.verifyShards(db, nodes, acked, "after reopen")
	if c.trace {
		c.replayS, c.replayN = rec, int64(len(acked))
		t5 := now()
		c.must(db.Checkpoint(), "checkpoint")
		c.checkpointS = float64(now()-t5) / 1e9
	}
	c.must(db.Close(), "close")
}

// warmCores keeps every core busy for d. This workload loads one core (the
// analyst) and wakes the other two thousand times a second, and how fast the
// sizing box serves those wake-ups depends on what it ran before: left idle
// for 45 s it reads 8.5 ms commit_p95_us, 700 commits/s and 0.115 s
// recover_s for as long as the pass lasts, after a second of load on both
// cores 6.6 ms, 820 and 0.088 s, also for as long as it lasts (a shared
// host, it seems, packs the two virtual CPUs of an idle guest and spreads
// them once both are busy). Each reading is steady on its own, spread 0.05 or
// less, but a quarter apart. A second of load before every set puts the box
// in the second state whatever ran before; the other workloads either load
// both cores themselves or (http-durable) read the same in both states.
func warmCores(d time.Duration) {
	until := now() + int64(d)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spinUntil(until)
		}()
	}
	wg.Wait()
}

// shardScripts draws each client's transactions: distinct (src, dst) pairs,
// crossPercent of them with the endpoints on different shards.
func shardScripts(r *rand.Rand, byShard [][]uint64, perClient int) [][]shardTx {
	seen := map[[2]uint64]bool{}
	out := make([][]shardTx, clients)
	for i := range out {
		for len(out[i]) < perClient {
			s := r.Intn(shardCount)
			d := s
			cross := r.Intn(100) < crossPercent
			if cross {
				d = (s + 1 + r.Intn(shardCount-1)) % shardCount
			}
			t := shardTx{src: byShard[s][r.Intn(len(byShard[s]))], dst: byShard[d][r.Intn(len(byShard[d]))], cross: cross}
			if t.src == t.dst || seen[[2]uint64{t.src, t.dst}] {
				continue
			}
			seen[[2]uint64{t.src, t.dst}] = true
			out[i] = append(out[i], t)
		}
	}
	return out
}

func (sc *shardClient) addRel(db *h2tap.DB, t *shardTx) {
	sc.attempted++
	t0 := now()
	tx, err := db.BeginSharded()
	if err != nil {
		sc.fail(err)
		return
	}
	t1 := now()
	if _, err := tx.AddRel(t.src, t.dst, "knows", 1); err != nil {
		tx.Abort() //nolint:errcheck
		sc.fail(err)
		return
	}
	parts := len(tx.Participants())
	t2 := now()
	if err := tx.Commit(); err != nil {
		sc.fail(err)
		return
	}
	end := now()
	sc.committed++
	sc.participants += int64(parts)
	sc.acked = append(sc.acked, *t)
	sc.commit.add(end, float64(end-t0))
	if t.cross {
		sc.cross.add(end, float64(end-t0))
	} else {
		sc.single.add(end, float64(end-t0))
	}
	sc.acks = append(sc.acks, ackRec{at: end})
	traced := sc.traceThis()
	sc.noteOverhead(traced, float64(end-t0))
	if traced {
		sc.txs = append(sc.txs, txTrace{t0: t0, t1: t1, t2: t2, t3: end, ops: 1, client: int32(sc.id)})
	}
}

// stitchedBFS runs one cross-shard BFS. Shard timestamp domains are
// independent, so the freshness rule is by issue time.
func (c *runCtx) stitchedBFS(db *h2tap.DB, src uint64) {
	start := now()
	var res *h2tap.StitchResult
	err := c.surviveScanRace(func() (err error) {
		res, err = db.RunAnalyticsStitched(h2tap.BFS, src)
		return err
	})
	end := now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil || len(res.Levels) == 0 || len(res.Excluded) != 0 {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf("stitched BFS: err=%v", err))
		return
	}
	c.analytics.add(end, float64(end-start))
	c.anaLog = append(c.anaLog, anaRec{start: start, end: end})
	if c.trace {
		c.stitchMs = append(c.stitchMs, float64(end-start)/1e6)
		c.results = append(c.results, resultRec{wall: time.Duration(end - start), hostWall: res.HostWall, kernelSim: time.Duration(res.KernelSim)})
	}
}

// verifyShards is the sharded correctness gate: node and relationship
// counts equal the ledger, every acked edge's source has its out-degree, and
// a stitched kernel sees every edge.
func (c *runCtx) verifyShards(db *h2tap.DB, nodes int, acked []shardTx, when string) {
	c.attempted++
	st := db.Stats()
	if st.LiveNodes != int64(nodes) || st.LiveRels != int64(len(acked)) {
		c.violate("%s: %d nodes / %d rels live, ledger has %d / %d", when, st.LiveNodes, st.LiveRels, nodes, len(acked))
	}
	want := map[uint64]int{}
	for _, t := range acked {
		want[t.src]++
	}
	cl := db.Cluster()
	for g, n := range want {
		store := cl.Domain(int(g % shardCount)).Store()
		if got := len(store.OutEdgesAt(g/shardCount, store.Oracle().LastCommitted())); got != n {
			c.violate("%s: node %d has %d out-edges, ledger has %d", when, g, got, n)
		}
	}
	res, err := db.RunAnalyticsStitched(h2tap.WCC, 0)
	if err != nil || res.Edges != int64(len(acked)) {
		c.violate("%s: stitched WCC err=%v", when, err)
	}
}
