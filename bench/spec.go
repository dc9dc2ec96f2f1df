package main

// The names in this file are the benchmark's public vocabulary: BENCHMARK.json
// repeats them (spec_test.go holds the two equal) and every later performance
// claim is made as one of these metric names on one of these workload names.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx)
	// sets is how many sets, each on a fresh database, a plain pass deals its
	// work to: set-up, recovery and heap are medians over them. txn-burst
	// has more and shorter ones, because its commits slow down as the hot
	// adjacency lists grow within a set.
	sets int
	layers
}

// layers says which layers a workload exercises, and so which probes run for
// it and which per-layer metrics it reports; a bypassed layer's metrics read
// 0. large selects the SF3÷2 dataset for the probes, as for the workload.
type layers struct{ static, dynamic, durable, http, sharded, large bool }

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloads = []workloadSpec{
	{"txn-burst", "volatile embedded commit path alone (no WAL, network or shards), then one large-batch propagation per burst where the delta-store scan dominates", runTxnBurst, 6, layers{static: true}},
	{"txn-hotkey", "Zipf-skewed writers beside adjacency-walking readers on the same engine: the only place MVTO conflicts and pointer-chasing dominate", runTxnHotkey, 3, layers{static: true}},
	{"htap-static", "open-loop updates while a closed-loop analyst runs BFS on a large static CSR: small batches, so merge-copy and cycle overhead dominate analytics and freshness", runHTAPStatic, 5, layers{static: true, large: true}},
	{"htap-dynamic", "same inputs and schedule on the dynamic hash replica: csr merge is bypassed, Algorithm 1 ingest does the work", runHTAPDynamic, 5, layers{dynamic: true, large: true}},
	{"http-durable", "whole service path over HTTP with a synced WAL on a pinned-latency device: fsync and queueing set latency, CPU layers are under 5 percent", runHTTPDurable, 4, layers{static: true, durable: true, http: true}},
	{"shard-2pc", "four durable shards, 75 percent single-shard fast path and 25 percent cross-shard 2PC, beside a closed-loop stitched-BFS analyst: the only place the shard layer works", runShard2PC, 3, layers{static: true, durable: true, sharded: true}},
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them (see README "How each workload realises each metric"). A bound
// keeps ISSUE.md's value (0.10, 0.15) where the metric's worst ten-seed spread
// (IQR ÷ median, over the six workloads) stays under a third of it on the
// sizing box, and is otherwise three times that spread, capped at the
// contract's ceiling of 0.25. baseline-spread.txt has the sweeps: every timing
// has spread 0.09 or more on some workload in one of them, so only the live
// heap, fixed by the fixed work (spread 0.004), keeps ISSUE.md's bound.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"commit_per_s", "1/s", higher, 0.25},
	{"commit_p50_us", "us", lower, 0.25},
	{"commit_p95_us", "us", lower, 0.25},
	{"read_p50_us", "us", lower, 0.25},
	{"analytics_p50_ms", "ms", lower, 0.25},
	{"analytics_p95_ms", "ms", lower, 0.25},
	{"freshness_p50_ms", "ms", lower, 0.25},
	{"freshness_p95_ms", "ms", lower, 0.25},
	{"recover_s", "s", lower, 0.25},
	{"heap_live_mb", "MB", lower, 0.10},
}

// perLayer is the ledger of single-layer readings; the prefix is the module
// name. A metric whose layer a workload bypasses reads 0 there.
var perLayer = []metricSpec{
	{"client.sched_lag_p95_us", "us", lower, 0},
	{"client.commit_p99_us", "us", lower, 0},
	{"client.trace_overhead_frac", "frac", lower, 0},
	{"client.accounted_frac", "frac", higher, 0},

	{"ldbc.generate_s", "s", lower, 0},
	{"graph.bulkload_s", "s", lower, 0},
	{"htap.start_engine_s", "s", lower, 0},
	{"server.start_s", "s", lower, 0},

	{"graph.begin_ns", "ns", lower, 0},
	{"graph.apply_ns_per_op", "ns", lower, 0},
	{"graph.commit_ns", "ns", lower, 0},
	{"graph.baseline_commit_ns", "ns", lower, 0},
	{"graph.neighbors_ns_per_edge", "ns", lower, 0},
	{"graph.heap_bytes_per_commit", "B", lower, 0},

	{"mvto.begin_commit_ns", "ns", lower, 0},
	{"mvto.retry_frac", "frac", lower, 0},

	{"delta.build_ns_per_tx", "ns", lower, 0},
	{"delta.records_per_tx", "count", lower, 0},

	{"deltastore.append_ns_per_tx", "ns", lower, 0},
	{"deltastore.append_ns_per_tx_c2", "ns", lower, 0},
	{"deltastore.scan_us_per_krecord", "us", lower, 0},
	{"deltastore.scan_ms_per_cycle", "ms", lower, 0},
	{"deltastore.records_per_cycle", "count", lower, 0},
	{"deltastore.bytes_per_record", "B", lower, 0},
	{"deltastore.scan_race_repeats", "count", lower, 0},

	{"pmem.append_overhead_ns_per_tx", "ns", lower, 0},

	{"storage.append_ns", "ns", lower, 0},
	{"storage.scan_ns_per_elem", "ns", lower, 0},

	{"csr.merge_ms_per_cycle", "ms", lower, 0},
	{"csr.edges_copied_per_cycle", "count", lower, 0},
	{"csr.merge_ns_per_edge", "ns", lower, 0},
	{"csr.merge_serial_ns_per_edge", "ns", lower, 0},
	{"csr.build_ns_per_edge", "ns", lower, 0},

	{"dyngraph.ingest_ns_per_op", "ns", lower, 0},
	{"dyngraph.ops_per_cycle", "count", lower, 0},

	{"gpu.h2d_bytes_per_cycle", "B", lower, 0},
	{"gpu.transfer_sim_us_per_cycle", "us", lower, 0},
	{"gpu.ingest_sim_us_per_cycle", "us", lower, 0},
	{"gpu.kernel_sim_us", "us", lower, 0},

	{"htap.propagate_wall_ms", "ms", lower, 0},
	{"htap.cycle_self_ms", "ms", lower, 0},
	{"htap.cycles", "count", lower, 0},
	{"htap.modeled_latency_ms", "ms", lower, 0},

	{"analytics.bfs_host_ms", "ms", lower, 0},
	{"analytics.pagerank_host_ms", "ms", lower, 0},
	{"analytics.sssp_host_ms", "ms", lower, 0},
	{"analytics.wcc_host_ms", "ms", lower, 0},

	{"wal.commit_us_c1", "us", lower, 0},
	{"wal.commit_us_c2", "us", lower, 0},
	{"wal.nosync_commit_us", "us", lower, 0},
	{"wal.records_per_batch", "count", higher, 0},
	{"wal.bytes_per_commit", "B", lower, 0},
	{"wal.replay_us_per_commit", "us", lower, 0},
	{"wal.checkpoint_s", "s", lower, 0},

	{"vfs.fsyncs_per_commit", "count", lower, 0},
	{"vfs.writes_per_commit", "count", lower, 0},
	{"vfs.write_bytes_per_commit", "B", lower, 0},
	{"vfs.sync_call_p50_us", "us", lower, 0},
	{"vfs.fsync_probe_us", "us", lower, 0},

	{"server.http_overhead_us", "us", lower, 0},
	{"server.analytics_wait_ms", "ms", lower, 0},
	{"server.shed_frac", "frac", lower, 0},

	{"shard.single_commit_p50_us", "us", lower, 0},
	{"shard.cross_commit_p50_us", "us", lower, 0},
	{"shard.participants_per_tx", "count", lower, 0},
	{"shard.fsyncs_per_cross_commit", "count", lower, 0},
	{"shard.stitch_ms", "ms", lower, 0},
	{"shard.ghost_nodes", "count", lower, 0},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
