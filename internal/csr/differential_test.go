package csr

import (
	"math/rand"
	"testing"

	"h2tap/internal/delta"
	"h2tap/internal/mvto"
)

// sameBytes reports whether two CSRs are bit-identical in all three arrays
// — stronger than Equal, which only compares the represented graph.
func sameBytes(a, b *CSR) bool {
	if len(a.Off) != len(b.Off) || len(a.Col) != len(b.Col) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Off {
		if a.Off[i] != b.Off[i] {
			return false
		}
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

// randomCSR builds a random valid CSR over n nodes.
func randomCSR(r *rand.Rand, n int) *CSR {
	c := &CSR{Off: make([]int64, n+1)}
	for u := 0; u < n; u++ {
		deg := r.Intn(6)
		if deg > n {
			deg = n
		}
		used := map[uint64]bool{}
		cols := make([]uint64, 0, deg)
		for len(cols) < deg {
			dst := uint64(r.Intn(n))
			if !used[dst] {
				used[dst] = true
				cols = append(cols, dst)
			}
		}
		sortUint64s(cols)
		for _, dst := range cols {
			c.Col = append(c.Col, dst)
			c.Val = append(c.Val, float64(r.Intn(97)+1))
		}
		c.Off[u+1] = int64(len(c.Col))
	}
	return c
}

func sortUint64s(xs []uint64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// randomBatch builds a random node-sorted propagation batch over old's node
// space plus a few new-node IDs, mixing edge inserts/deletes, overwrites,
// node deletions (tombstones) and new-node inserts.
func randomBatch(r *rand.Rand, oldN int) *delta.Batch {
	batch := &delta.Batch{}
	maxNode := oldN + r.Intn(5)
	for node := 0; node <= maxNode; node++ {
		if r.Intn(3) != 0 {
			continue // untouched row
		}
		d := delta.Combined{Node: uint64(node)}
		switch r.Intn(5) {
		case 0:
			d.Deleted = true
		default:
			used := map[uint64]bool{}
			for x := 0; x < r.Intn(5); x++ {
				dst := uint64(r.Intn(oldN + 2))
				if used[dst] {
					continue
				}
				used[dst] = true
				if r.Intn(2) == 0 {
					d.Ins = append(d.Ins, delta.Edge{Dst: dst, W: float64(r.Intn(9) + 1)})
				} else {
					d.Del = append(d.Del, dst)
				}
			}
		}
		if node >= oldN {
			d.Inserted = !d.Deleted
			d.Del = nil
		}
		sortIns(d.Ins)
		sortUint64s(d.Del)
		if d.Empty() {
			continue
		}
		batch.Deltas = append(batch.Deltas, d)
	}
	return batch
}

func sortIns(xs []delta.Edge) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j].Dst < xs[j-1].Dst; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// rowsSnapshot adapts refMerge's output rows to the Snapshot interface so
// Build can be run over the post-apply state.
type rowsSnapshot struct{ c *CSR }

func (s rowsSnapshot) NumNodeSlots() uint64 { return uint64(s.c.NumNodes()) }
func (s rowsSnapshot) OutEdgesAt(id uint64, _ mvto.TS) []delta.Edge {
	col, val := s.c.Row(id)
	if len(col) == 0 {
		return nil
	}
	out := make([]delta.Edge, len(col))
	for i := range col {
		out[i] = delta.Edge{Dst: col[i], W: val[i]}
	}
	return out
}

// TestMergeDifferential is the parallel-propagation proof obligation: for
// randomized graphs and randomized delta batches, the serial merge, the
// parallel merge at several worker counts (including 1), and a Build of the
// post-apply snapshot must all produce the same Off/Col/Val bytes and the
// merges the same MergeStats.
func TestMergeDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(0xd1ff))
	workerCounts := []int{1, 2, 3, 4, 8}
	const cases = 150
	for iter := 0; iter < cases; iter++ {
		oldN := r.Intn(200) + 1
		old := randomCSR(r, oldN)
		batch := randomBatch(r, oldN)

		serial, serialSt := MergeSerial(old, batch)
		if err := serial.Validate(); err != nil {
			t.Fatalf("iter %d: serial merge invalid: %v", iter, err)
		}
		if want := refMerge(old, batch); !Equal(serial, want) {
			t.Fatalf("iter %d: serial merge differs from reference", iter)
		}

		for _, w := range workerCounts {
			par, parSt := MergeWorkers(old, batch, w)
			if !sameBytes(serial, par) {
				t.Fatalf("iter %d: %d-worker merge bytes differ from serial\nold: %+v\nbatch: %+v",
					iter, w, old, batch.Deltas)
			}
			if parSt != serialSt {
				t.Fatalf("iter %d: %d-worker merge stats = %+v, serial %+v", iter, w, parSt, serialSt)
			}
		}

		// Build of the post-apply snapshot must land on the same bytes: the
		// merged CSR's rows are already sorted and deduplicated, so building
		// from them reproduces the exact layout.
		snap := rowsSnapshot{c: serial}
		for _, w := range []int{1, 4} {
			built := BuildWorkers(snap, 0, w)
			if !sameBytes(serial, built) {
				t.Fatalf("iter %d: %d-worker build of post-apply snapshot differs from merge", iter, w)
			}
		}
	}
}
