package main

import (
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"h2tap"
	"h2tap/internal/analytics"
	"h2tap/internal/csr"
	"h2tap/internal/delta"
	"h2tap/internal/deltastore"
	"h2tap/internal/dyngraph"
	"h2tap/internal/graph"
	"h2tap/internal/mvto"
	"h2tap/internal/pmem"
	"h2tap/internal/server"
	"h2tap/internal/sim"
	"h2tap/internal/storage"
	"h2tap/internal/wal"
)

// Layer probes (P in the README's metric table): one layer's public function
// timed in isolation, on inputs derived from the workload's own dataset and
// op script. A probe claims nothing about the workload; it says what the
// layer costs when nothing else is in the way, which is the number a change
// to that layer should move first.

// probes is the per-layer readings of the isolated probes, by metric name.
type probes map[string]float64

const probeOps = 20_000 // transactions behind each commit-path probe

// probeN scales a probe's repetition count with the pass (full size when
// measuring, a fiftieth in the smoke test), at least min.
func (c *runCtx) probeN(n, min int) int {
	n = int(float64(n) * c.scale)
	if n < min {
		n = min
	}
	return n
}

// sink keeps the storage scan probe's sum alive, so the compiler cannot drop
// the loop that computes it.
var sink uint64

// timed returns fn's wall nanoseconds.
func timed(fn func()) float64 {
	t0 := now()
	fn()
	return float64(now() - t0)
}

// best is the median of reps runs of fn, each timed whole.
func best(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = timed(fn)
	}
	return median(xs)
}

// probeCommitPath measures the CPU layers a volatile commit crosses — mvto,
// delta, deltastore, storage — and the propagation primitives fed by the
// same deltas: the delta-store scan, then the CSR merge (static) or the
// dynamic-structure ingest (dynamic). script is the workload's own op
// stream; workers the engine's propagation worker count.
func (c *runCtx) probeCommitPath(p probes, ds *snb, script []op, static, dynamic bool, workers int) {
	if n := c.probeN(probeOps, 200); len(script) > n {
		script = script[:n]
	}

	// storage: the chunked vector every store sits on.
	elems := uint64(c.probeN(1<<20, 1<<12))
	v := storage.NewChunkedVector[uint64](0)
	p["storage.append_ns"] = timed(func() {
		for i := uint64(0); i < elems; i++ {
			v.Append(i)
		}
	}) / float64(elems)
	p["storage.scan_ns_per_elem"] = best(3, func() {
		v.ForEachFrom(0, elems, func(_ uint64, x *uint64) bool { sink += *x; return true })
	}) / float64(elems)

	// mvto: timestamp allocation and commit with nothing to publish.
	oracle := mvto.NewOracle()
	txns := c.probeN(200_000, 1_000)
	p["mvto.begin_commit_ns"] = timed(func() {
		for i := 0; i < txns; i++ {
			oracle.Begin().Commit() //nolint:errcheck // an empty transaction cannot conflict
		}
	}) / float64(txns)

	// A bare store holding the dataset: the source of the probe CSR and,
	// last, the capture-free commit baseline.
	store := graph.NewStore()
	loadTS, err := store.BulkLoad(ds.Nodes, ds.Edges)
	c.must(err, "probe load")
	var base *csr.CSR
	buildNs := best(3, func() { base = csr.BuildWorkers(store, loadTS, workers) })
	p["csr.build_ns_per_edge"] = buildNs / float64(base.NumEdges())

	// delta: build each transaction's delta the way graph.Tx does. The timed
	// pass only builds (Reset … BuildInto, into the builder's reused slots);
	// a second, untimed pass builds the same deltas again and keeps a copy of
	// each, as a Capturer must, for the probes below.
	b := delta.NewBuilder()
	var scratch delta.TxDelta
	build := func(i int, next *uint64) *delta.TxDelta {
		o := &script[i]
		b.Reset()
		switch o.kind {
		case insertRel:
			b.InsertEdge(o.src, o.dst, o.w)
		case insertNode:
			b.InsertNode(*next)
			b.InsertEdge(o.src, *next, o.w)
			*next++
		case deleteRel:
			if cols, _ := base.Row(o.src); len(cols) > 0 {
				b.DeleteEdge(o.src, cols[i%len(cols)])
			}
		case deleteNode:
			b.DeleteNode(o.src)
		}
		return b.BuildInto(mvto.TS(i+2), &scratch)
	}
	records := 0
	next := uint64(base.NumNodes())
	p["delta.build_ns_per_tx"] = timed(func() {
		for i := range script {
			records += len(build(i, &next).Nodes)
		}
	}) / float64(len(script))
	p["delta.records_per_tx"] = float64(records) / float64(len(script))
	deltas := make([]delta.TxDelta, len(script))
	next = uint64(base.NumNodes())
	for i := range script {
		d := build(i, &next)
		deltas[i] = delta.TxDelta{TS: d.TS, Nodes: append([]delta.NodeDelta(nil), d.Nodes...)}
		for j := range deltas[i].Nodes {
			n := &deltas[i].Nodes[j]
			n.Ins = append([]delta.Edge(nil), n.Ins...)
			n.Del = append([]uint64(nil), n.Del...)
		}
	}

	// deltastore: contention-free append at one and two threads, then the scan.
	capture := func(s *deltastore.Store, ds []delta.TxDelta) {
		for i := range ds {
			s.Capture(&ds[i])
		}
	}
	ds1 := deltastore.NewVolatile()
	volatileNs := timed(func() { capture(ds1, deltas) }) / float64(len(deltas))
	p["deltastore.append_ns_per_tx"] = volatileNs
	ds2 := deltastore.NewVolatile()
	half := len(deltas) / 2
	p["deltastore.append_ns_per_tx_c2"] = timed(func() {
		var wg sync.WaitGroup
		for _, part := range [][]delta.TxDelta{deltas[:half], deltas[half:]} {
			wg.Add(1)
			go func(part []delta.TxDelta) {
				defer wg.Done()
				capture(ds2, part)
			}(part)
		}
		wg.Wait()
	}) / float64(half)
	bound := mvto.TS(len(script) + 2)
	var staged *deltastore.StagedScan
	scanNs := best(5, func() {
		staged = ds1.StageScanWorkers(bound, workers)
		staged.Abandon()
	})
	p["deltastore.scan_us_per_krecord"] = scanNs / 1e3 / (float64(staged.Batch.Records) / 1e3)
	batch := staged.Batch

	if static {
		edges := float64(base.NumEdges())
		p["csr.merge_ns_per_edge"] = best(5, func() { csr.MergeWorkers(base, batch, workers) }) / edges
		p["csr.merge_serial_ns_per_edge"] = best(5, func() { csr.MergeSerial(base, batch) }) / edges
	}
	if dynamic {
		var ns, ops []float64
		for rep := 0; rep < 3; rep++ {
			g := dyngraph.FromCSR(base)
			var st dyngraph.Stats
			ns = append(ns, timed(func() { st = g.ApplyBatchWorkers(batch, workers) }))
			ops = append(ops, float64(st.Ops()))
		}
		p["dyngraph.ingest_ns_per_op"] = median(ns) / median(ops)
		p["dyngraph.ops_per_record"] = median(ops) / float64(batch.Records)
	}

	// graph: the same transactions against the bare store with capture
	// stubbed out — what a commit costs before DELTA_FE (Fig 6's baseline).
	store.AddCapturer(delta.NopCapturer{})
	cl := newClient(0, len(script), 0, true, false)
	begin := func() *h2tap.Tx { return store.Begin() }
	for i := range script {
		t := now()
		cl.update(begin, &script[i], t, t)
	}
	commitNs := make([]float64, len(cl.txs))
	for i, t := range cl.txs {
		commitNs[i] = float64(t.t3 - t.t2)
	}
	p["graph.baseline_commit_ns"] = median(commitNs)
}

// probeReplica times the other kernels on the workload's final replica.
func (c *runCtx) probeReplica(db *h2tap.DB, ds *snb) {
	view, _, release := db.Engine().AcquireReplica()
	defer release()
	src := c.sources(ds)[0]
	for _, k := range []string{"pagerank", "sssp", "wcc"} {
		c.probed["analytics."+k+"_host_ms"] = timed(func() {
			if _, err := analytics.Run(view, k, src, 10, 0.85); err != nil {
				c.violate("probe kernel %s: %v", k, err)
			}
		}) / 1e6
	}
}

// loggedTx is the write-ahead record of the http-durable transaction shape.
func loggedTx(i uint64) []graph.LoggedOp {
	return []graph.LoggedOp{
		{Kind: graph.OpAddNode, ID: 4 * i, Label: "Person"},
		{Kind: graph.OpAddNode, ID: 4*i + 1, Label: "Post"},
		{Kind: graph.OpAddRel, ID: 4 * i, Src: i, Dst: 4 * i, Label: "knows", Weight: 1},
		{Kind: graph.OpAddRel, ID: 4*i + 1, Src: i + 1, Dst: 4*i + 1, Label: "likes", Weight: 1},
	}
}

// probeDurable measures the durability layers alone: the WAL with one and
// two pinned committers and unsynced, and the persistent delta store's
// append overhead over the volatile one.
func (c *runCtx) probeDurable(p probes) {
	dir := filepath.Join(c.workDir, "probe-durable")
	c.must(os.MkdirAll(dir, 0o755), "probe dir")
	defer os.RemoveAll(dir)
	slow := pinnedDevice()

	walRun := func(name string, syncEvery bool, committers, perCommitter int) float64 {
		l, err := wal.Open(filepath.Join(dir, name), wal.Options{SyncEveryCommit: syncEvery, FS: slow})
		c.must(err, "probe wal")
		defer l.Close()
		var mu sync.Mutex
		var us []float64
		var ts mvto.TS
		var wg sync.WaitGroup
		for w := 0; w < committers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				mine := make([]float64, 0, perCommitter)
				for i := 0; i < perCommitter; i++ {
					mu.Lock()
					ts++
					t := ts
					mu.Unlock()
					ops := loggedTx(uint64(t))
					t0 := now()
					if err := l.LogCommit(t, ops); err != nil {
						c.violate("probe wal: %v", err)
						return
					}
					mine = append(mine, float64(now()-t0)/1e3)
				}
				mu.Lock()
				us = append(us, mine...)
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		return median(us)
	}
	p["wal.commit_us_c1"] = walRun("c1.wal", true, 1, c.probeN(150, 5))
	p["wal.commit_us_c2"] = walRun("c2.wal", true, 2, c.probeN(150, 5))
	p["wal.nosync_commit_us"] = walRun("nosync.wal", false, 1, c.probeN(20_000, 100))

	// pmem: the same synthetic deltas into a volatile and a persistent store.
	deltas := make([]delta.TxDelta, c.probeN(5_000, 100))
	for i := range deltas {
		n := uint64(i)
		deltas[i] = delta.TxDelta{TS: mvto.TS(i + 2), Nodes: []delta.NodeDelta{
			{Node: n % 512, Ins: []delta.Edge{{Dst: 1000 + n, W: 1}}},
			{Node: 1000 + n, Inserted: true},
		}}
	}
	vol := deltastore.NewVolatile()
	volNs := timed(func() {
		for i := range deltas {
			vol.Capture(&deltas[i])
		}
	})
	pool, err := pmem.CreateOn(slow, filepath.Join(dir, "probe.pool"), 16<<20, sim.DefaultPMem())
	c.must(err, "probe pool")
	defer pool.Close()
	per, err := deltastore.NewPersistent(pool)
	c.must(err, "probe persistent store")
	perNs := timed(func() {
		for i := range deltas {
			per.Capture(&deltas[i])
		}
	})
	if err := per.PersistErr(); err != nil {
		c.violate("probe persistent store: %v", err)
	}
	p["pmem.append_overhead_ns_per_tx"] = (perNs - volNs) / float64(len(deltas))
}

// probeHTTPOverhead runs the http-durable transaction shape against a
// volatile database twice — over HTTP on one keep-alive connection, then
// embedded — and reports the difference of the medians: what the service
// layer itself adds when no device is in the way.
func (c *runCtx) probeHTTPOverhead(p probes, ds *snb) (httpP50us float64) {
	db, _, _ := c.volatileDB(ds, h2tap.StaticCSR)
	defer db.Close()
	srv, err := server.New(db, server.Config{Addr: "127.0.0.1:0", SessionRate: 1e9, SessionBurst: 1e9, TraceSample: 1 << 30}, nil, nil)
	c.must(err, "probe server")
	c.must(srv.Start(), "probe server start")
	defer srv.Close()
	n := c.probeN(1_500, 50)
	r := rand.New(rand.NewSource(c.seed))
	h := &httpClient{client: newClient(0, n, 0, false, false), url: "http://" + srv.Addr(), session: "probe",
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
	defer h.hc.CloseIdleConnections()
	pick := func() uint64 { return ds.Persons[r.Intn(len(ds.Persons))] }
	h.postCommit(0, 0, false)
	for i := 0; i < n; i++ {
		h.postCommit(pick(), pick(), true)
	}
	if h.failed > 0 {
		c.violate("probe http: %d of %d requests failed: %v", h.failed, n, h.errs)
	}
	emb := make([]float64, 0, n)
	a, b := h.lastA, h.lastB
	for i := 0; i < n; i++ {
		t0 := now()
		tx := db.Begin()
		na, err1 := tx.AddNode("Person", nil)
		nb, err2 := tx.AddNode("Post", nil)
		_, err3 := tx.AddRel(pick(), a, "knows", 1)
		_, err4 := tx.AddRel(pick(), b, "likes", 1)
		err5 := tx.Commit()
		emb = append(emb, float64(now()-t0)/1e3)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			c.violate("probe embedded commit: %v %v %v %v %v", err1, err2, err3, err4, err5)
			break
		}
		a, b = na, nb
	}
	sort.Float64s(h.commit.v)
	httpP50, _ := percentile(h.commit.v, 50)
	p["server.http_overhead_us"] = httpP50/1e3 - median(emb)
	return httpP50 / 1e3
}

// probeCrossCommit counts the fsyncs one cross-shard commit costs, alone on
// the cluster so no other commit's batch can share or add one.
func (c *runCtx) probeCrossCommit(db *h2tap.DB, fs *countFS, byShard [][]uint64) {
	n := c.probeN(60, 8)
	before := fs.snapshot()
	for i := 0; i < n; i++ {
		tx, err := db.BeginSharded()
		c.must(err, "probe begin")
		// The far ends of the seed lists: the scripts draw pairs at random,
		// these are walked in order, and a repeat would fail as a duplicate.
		src := byShard[i%shardCount][len(byShard[i%shardCount])-1-i/shardCount]
		dst := byShard[(i+1)%shardCount][len(byShard[(i+1)%shardCount])-1-i/shardCount]
		if _, err := tx.AddRel(src, dst, "probe", 1); err != nil {
			tx.Abort() //nolint:errcheck
			continue   // the pair exists already: the script drew it
		}
		if err := tx.Commit(); err != nil {
			c.violate("probe cross-shard commit: %v", err)
			return
		}
		c.probeAcked = append(c.probeAcked, shardTx{src: src, dst: dst, cross: true})
	}
	if done := len(c.probeAcked); done > 0 {
		c.probed["shard.fsyncs_per_cross_commit"] = float64(fs.snapshot().sub(before).syncs) / float64(done)
	}
}
