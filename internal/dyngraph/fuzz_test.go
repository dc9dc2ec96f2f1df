package dyngraph

import (
	"testing"

	"h2tap/internal/csr"
	"h2tap/internal/delta"
)

// FuzzApplyBatch drives Algorithm 1 with fuzzer-shaped replicas and
// batches — new nodes beyond the old range, ID gaps, deleted nodes, edge
// inserts, overwrites and deletes — and checks it against the static path:
// at 1 and 3 workers the ingested graph must equal csr.MergeSerial's
// output, pass Validate, and report exactly the Stats (and slot count)
// PlanBatch predicted, which the simulated device relies on for failure
// atomicity.
func FuzzApplyBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{9, 1, 0, 4})
	f.Add([]byte{0x01, 0x12, 0x23}, []byte{0x0f, 0xa2, 0xb3, 0x14, 0x15})
	f.Add([]byte{0, 0, 0}, []byte{})
	f.Fuzz(func(t *testing.T, graphBytes, deltaBytes []byte) {
		const n = 8 // old node space; deltas reach up to n+5
		old := decodeCSR(graphBytes, n)
		if err := old.Validate(); err != nil {
			t.Fatalf("setup produced invalid CSR: %v", err)
		}
		batch := decodeBatch(deltaBytes, n, n+6)
		want, _ := csr.MergeSerial(old, batch)
		for _, workers := range []int{1, 3} {
			g := FromCSR(old)
			planned, slots, maxEdges := g.PlanBatch(batch)
			st := g.ApplyBatchWorkers(batch, workers)
			if err := g.Validate(); err != nil {
				t.Fatalf("workers %d: %v\nold: %+v\nbatch: %+v", workers, err, old, batch.Deltas)
			}
			if got := g.ToCSR(); !csr.Equal(got, want) {
				t.Fatalf("workers %d: ingest %+v differs from merge %+v\nbatch: %+v", workers, got, want, batch.Deltas)
			}
			if st != planned || slots != g.NumVertexSlots() || g.NumEdges() > maxEdges {
				t.Fatalf("workers %d: applied %+v, %d slots, %d edges; planned %+v, %d slots, ≤ %d edges",
					workers, st, g.NumVertexSlots(), g.NumEdges(), planned, slots, maxEdges)
			}
		}
	})
}

// decodeCSR reads a structurally valid CSR over n nodes: each byte is a
// (src, dst) pair in nibbles, the byte's index picks the weight, and a
// repeated pair keeps its last weight.
func decodeCSR(b []byte, n uint64) *csr.CSR {
	w := make(map[[2]uint64]float64)
	for i, x := range b {
		w[[2]uint64{uint64(x>>4) % n, uint64(x&0xf) % n}] = float64(i%9 + 1)
	}
	c := &csr.CSR{Off: make([]int64, n+1)}
	for u := uint64(0); u < n; u++ {
		for v := uint64(0); v < n; v++ {
			if x, ok := w[[2]uint64{u, v}]; ok {
				c.Col = append(c.Col, v)
				c.Val = append(c.Val, x)
			}
		}
		c.Off[u+1] = int64(len(c.Col))
	}
	return c
}

// decodeBatch reads a node-sorted batch the way a delta store scan
// produces it: one combined delta per touched node below space, with
// sorted, disjoint Ins and Del. Each byte's high nibble picks the node
// (nodes ≥ oldN are new, and untouched IDs between them are gaps); the low
// nibble is 15 for a node delete, otherwise an edge insert (even) or delete
// (odd) of destination act/2, the last action on an edge winning.
func decodeBatch(b []byte, oldN, space uint64) *delta.Batch {
	type edgeOp struct {
		ins bool
		w   float64
	}
	deleted := make(map[uint64]bool)
	ops := make(map[uint64]map[uint64]edgeOp)
	for i, x := range b {
		node := uint64(x>>4) % space
		if deleted[node] {
			continue
		}
		if ops[node] == nil {
			ops[node] = make(map[uint64]edgeOp)
		}
		switch act := uint64(x & 0xf); {
		case act == 15:
			deleted[node] = true
		default:
			ops[node][act/2%oldN] = edgeOp{ins: act%2 == 0, w: float64(i%9 + 1)}
		}
	}
	batch := &delta.Batch{}
	for node := uint64(0); node < space; node++ {
		m, touched := ops[node]
		if !touched {
			continue
		}
		d := delta.Combined{Node: node, Inserted: node >= oldN, Deleted: deleted[node]}
		if d.Deleted {
			d.Inserted = false
		} else {
			for dst := uint64(0); dst < oldN; dst++ {
				if op, ok := m[dst]; ok && op.ins {
					d.Ins = append(d.Ins, delta.Edge{Dst: dst, W: op.w})
				} else if ok {
					d.Del = append(d.Del, dst)
				}
			}
		}
		if !d.Empty() {
			batch.Deltas = append(batch.Deltas, d)
		}
	}
	return batch
}
