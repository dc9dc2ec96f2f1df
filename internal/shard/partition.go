// Package shard partitions the H2TAP engine into N independent MVTO/delta
// domains: each shard owns its own main-graph store, timestamp oracle,
// DELTA_FE delta store, cost model and simulated GPU replica, propagating on
// an independent cadence through the existing failure-atomic stage/commit
// machinery. A transaction that writes one shard commits entirely inside
// that domain (shards it only read drop out); one that writes several goes
// through a two-phase commit coordinator layered on the per-shard
// write-ahead logs plus a coordinator decision log.
// Cross-shard analytics stitch the per-shard replicas behind a watermark
// barrier so the composite view is always a consistent committed prefix
// (DESIGN.md §5h).
package shard

// Partitioner maps the cluster-global ID space onto shards. Placement is
// encoded in the ID itself — global = local*N + shard — so the mapping is
// total, involutive and stable across process restarts with no lookup table:
// any ID ever handed out decodes to exactly one (shard, local) pair.
type Partitioner struct {
	n uint64
}

// NewPartitioner returns a partitioner over n shards (n >= 1).
func NewPartitioner(n int) Partitioner {
	if n < 1 {
		n = 1
	}
	return Partitioner{n: uint64(n)}
}

// Shards reports the shard count.
func (p Partitioner) Shards() int { return int(p.n) }

// ShardOf reports the shard owning global ID g.
func (p Partitioner) ShardOf(g uint64) int { return int(g % p.n) }

// Local converts a global ID to the owning shard's local ID.
func (p Partitioner) Local(g uint64) uint64 { return g / p.n }

// Global converts (shard, local) back to the global ID.
func (p Partitioner) Global(shard int, local uint64) uint64 {
	return local*p.n + uint64(shard)
}

// EdgeOwner reports the shard owning edge (src, dst): the source's shard —
// out-adjacency lives with the source vertex, matching the CSR row layout.
func (p Partitioner) EdgeOwner(src, dst uint64) int { return p.ShardOf(src) }

// Place picks the home shard for the seq-th freshly created node by hashing
// the allocation sequence number (splitmix64), spreading inserts uniformly
// across shards regardless of arrival pattern.
func (p Partitioner) Place(seq uint64) int {
	return int(splitmix64(seq) % p.n)
}

// splitmix64 is the SplitMix64 finalizer — a full-avalanche 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
