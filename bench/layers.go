package main

import (
	"math/rand"

	"h2tap/internal/csr"
)

// runProbes runs the isolated layer probes the workload's plan calls for.
func (c *runCtx) runProbes() {
	size := small
	if c.large {
		size = large
	}
	ds := generateSNB(c.size(size), c.seed)
	script := c.probeScript
	if script == nil {
		script = mixedScript(rand.New(rand.NewSource(c.seed*31)), ds.hiDeg(), ds.Posts, probeOps)
	}
	c.probeCommitPath(c.probed, ds, script, c.static, c.dynamic, csr.DefaultWorkers())
	if c.durable {
		c.probeDurable(c.probed)
	}
	if c.http {
		c.probed["http.volatile_p50_us"] = c.probeHTTPOverhead(c.probed, ds)
	}
}

// perLayerMetrics folds the traced set and the probes into the per-layer
// ledger.
func (c *runCtx) perLayerMetrics(env environment) map[string]metric {
	a := &c.acc
	m := map[string]metric{}
	for _, s := range perLayer {
		m[s.Name] = metric{Unit: s.Unit, Supported: true}
	}
	set := func(name string, v float64, n int) {
		e := m[name]
		e.Value, e.N = v, n
		m[name] = e
	}
	med := func(name string, xs []float64, div float64) {
		if len(xs) > 0 {
			set(name, median(xs)/div, len(xs))
		}
	}
	for name, v := range c.probed {
		if _, ok := m[name]; ok {
			set(name, v, 1)
		}
	}
	commits := float64(a.committed)
	if commits == 0 {
		commits = 1
	}

	// client
	if len(a.lag.v) > 0 {
		set("client.sched_lag_p95_us", pctMetric(a.windows, &a.lag, 95, 1e3, "us").Value, len(a.lag.v))
	}
	set("client.commit_p99_us", pctMetric(a.windows, &a.commit, 99, 1e3, "us").Value, len(a.commit.v))
	if base := median(a.untracedNs); base > 0 {
		set("client.trace_overhead_frac", median(a.tracedNs)/base-1, len(a.tracedNs))
	}

	// set-up, from the traced set
	if len(a.setups) > 0 {
		s := a.setups[0]
		set("ldbc.generate_s", s.generate, 1)
		set("graph.bulkload_s", s.load, 1)
		set("htap.start_engine_s", s.engine, 1)
		set("server.start_s", s.server, 1)
	}

	// graph: the three public calls of a transaction; commit is self time,
	// the device calls under it taken out.
	cover := newCover(a.fsSpans)
	var whole, begin, apply, perOp, commitSelf, device []float64
	for _, t := range a.txs {
		whole = append(whole, float64(t.t3-t.t0))
		begin = append(begin, float64(t.t1-t.t0))
		apply = append(apply, float64(t.t2-t.t1))
		if t.ops > 0 {
			perOp = append(perOp, float64(t.t2-t.t1)/float64(t.ops))
		}
		dev := float64(cover.within(t.t2, t.t3))
		device = append(device, dev)
		commitSelf = append(commitSelf, float64(t.t3-t.t2)-dev)
	}
	embedded := !c.http // over HTTP the three calls happen behind the wire
	if embedded {
		med("graph.begin_ns", begin, 1)
		med("graph.apply_ns_per_op", perOp, 1)
		med("graph.commit_ns", commitSelf, 1)
	}
	if a.readEdges > 0 {
		set("graph.neighbors_ns_per_edge", float64(a.readNanos)/float64(a.readEdges), int(a.readEdges))
	}
	set("graph.heap_bytes_per_commit", a.heapGrowth/commits, int(a.committed))
	if a.attempts > 0 {
		set("mvto.retry_frac", float64(a.retries)/float64(a.attempts), int(a.attempts))
	}

	// accounted_frac: the children on the blocking path over the end-to-end
	// median. Embedded, the children are the three calls; over HTTP they are
	// what is visible from outside: device time under the request plus what
	// the same request costs with no device (the volatile HTTP probe).
	if len(a.txs) > 0 {
		children := median(begin) + median(apply) + median(commitSelf) + median(device)
		if !embedded {
			children = median(device) + c.probed["http.volatile_p50_us"]*1e3
		}
		set("client.accounted_frac", children/median(whole), len(a.txs))
	}

	// propagation cycles that consumed records
	var scan, recs, merge, copied, xfer, ingest []float64
	for _, r := range a.cycles {
		if r.Records == 0 {
			continue
		}
		scan = append(scan, float64(r.ScanWall))
		recs = append(recs, float64(r.Records))
		merge = append(merge, float64(r.MergeWall))
		copied = append(copied, float64(r.MergeStats.EdgesCopied))
		xfer = append(xfer, float64(r.TransferSim))
		ingest = append(ingest, float64(r.IngestSim))
	}
	med("deltastore.scan_ms_per_cycle", scan, 1e6)
	med("deltastore.records_per_cycle", recs, 1)
	if c.dynamic {
		med("gpu.ingest_sim_us_per_cycle", ingest, 1e3)
		if ops := c.probed["dyngraph.ops_per_record"]; ops > 0 && len(recs) > 0 {
			set("dyngraph.ops_per_cycle", ops*median(recs), len(recs))
		}
	} else {
		med("csr.merge_ms_per_cycle", merge, 1e6)
		med("csr.edges_copied_per_cycle", copied, 1)
	}
	med("gpu.transfer_sim_us_per_cycle", xfer, 1e3)
	if n := len(scan); n > 0 {
		set("gpu.h2d_bytes_per_cycle", float64(a.h2d)/float64(n), n)
	}
	set("htap.cycles", float64(len(scan)), len(scan))
	if a.deltaRecords > 0 {
		set("deltastore.bytes_per_record", a.bytesPerRecord, int(a.deltaRecords))
		set("delta.records_per_tx", float64(a.deltaRecords)/commits, int(a.committed)) // exact, over the probe's reading
	}

	set("deltastore.scan_race_repeats", float64(c.scanRaces), len(a.results))

	// analytics calls
	var host, kernel, modeled, propWall, cycleSelf []float64
	for _, r := range a.results {
		host = append(host, float64(r.hostWall))
		kernel = append(kernel, float64(r.kernelSim))
		if r.modeled > 0 {
			modeled = append(modeled, float64(r.modeled))
		}
		if r.propagated {
			propWall = append(propWall, float64(r.wall-r.hostWall))
			cycleSelf = append(cycleSelf, float64(r.wall-r.hostWall-r.scanWall-r.mergeWall))
		}
	}
	med("analytics.bfs_host_ms", host, 1e6)
	med("gpu.kernel_sim_us", kernel, 1e3)
	med("htap.modeled_latency_ms", modeled, 1e6)
	med("htap.propagate_wall_ms", propWall, 1e6)
	med("htap.cycle_self_ms", cycleSelf, 1e6)

	// wal + vfs, from the counting wrapper over the traced window
	if a.fs.walWrites > 0 {
		set("wal.records_per_batch", commits/float64(a.fs.walWrites), int(a.fs.walWrites))
		set("wal.bytes_per_commit", float64(a.fs.walBytes)/commits, int(a.committed))
	}
	if a.replayN > 0 {
		set("wal.replay_us_per_commit", a.replayS*1e6/float64(a.replayN), int(a.replayN))
	}
	set("wal.checkpoint_s", a.checkpointS, 1)
	set("vfs.fsyncs_per_commit", float64(a.fs.syncs)/commits, int(a.fs.syncs))
	set("vfs.writes_per_commit", float64(a.fs.writes)/commits, int(a.fs.writes))
	set("vfs.write_bytes_per_commit", float64(a.fs.writeBytes)/commits, int(a.fs.writes))
	var syncs []float64
	for _, s := range a.fsSpans {
		if s.sync {
			syncs = append(syncs, float64(s.end-s.start))
		}
	}
	med("vfs.sync_call_p50_us", syncs, 1e3)
	if c.durable {
		set("vfs.fsync_probe_us", env.FsyncProbeUs, 1)
	}

	// server
	med("server.analytics_wait_ms", a.waitMs, 1)
	if c.http && a.attempted > 0 {
		set("server.shed_frac", float64(a.shed)/float64(a.attempted), int(a.attempted))
	}

	// shard
	if len(a.singleShd.v) > 0 {
		set("shard.single_commit_p50_us", pctMetric(a.windows, &a.singleShd, 50, 1e3, "us").Value, len(a.singleShd.v))
		set("shard.cross_commit_p50_us", pctMetric(a.windows, &a.crossShrd, 50, 1e3, "us").Value, len(a.crossShrd.v))
		set("shard.participants_per_tx", float64(a.participants)/commits, int(a.committed))
		set("shard.ghost_nodes", float64(a.ghostNodes), 1)
	}
	med("shard.stitch_ms", a.stitchMs, 1)
	return m
}
