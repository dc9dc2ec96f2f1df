package csr

import (
	"math/rand"
	"testing"

	"h2tap/internal/delta"
)

// checkSegmentedMerge merges batch into prev at 1 and 3 workers and holds
// each result to MergeSerial over prev's flattened bytes: the same
// Off/Col/Val bytes, the same merged-row counts, a copy confined to the
// touched segments, and prev left byte-for-byte as it was. It returns the
// 3-worker version so callers can chain merges.
func checkSegmentedMerge(t *testing.T, prev *Segmented, batch *delta.Batch) *Segmented {
	t.Helper()
	flat := prev.ToCSR()
	want, wantSt := MergeSerial(flat, batch)
	// The rows the batch rewrites held these edges before the merge; the
	// rest of the touched segments' edges are what the merge copies.
	var touchedRows int64
	for i := range batch.Deltas {
		oc, _ := flat.Row(batch.Deltas[i].Node)
		touchedRows += int64(len(oc))
	}
	var got *Segmented
	for _, w := range []int{1, 3} {
		var st MergeStats
		got, st = prev.Merge(batch, w)
		out := got.ToCSR()
		if !sameBytes(out, want) {
			t.Fatalf("%d workers: segmented merge differs from MergeSerial\nold: %+v\nbatch: %+v\ngot: %+v\nwant: %+v",
				w, flat, batch.Deltas, out, want)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("%d workers: merged version invalid: %v", w, err)
		}
		if st.EdgesMerged != wantSt.EdgesMerged || st.RowsModified != wantSt.RowsModified || st.RowsAdded != wantSt.RowsAdded {
			t.Fatalf("%d workers: stats %+v, MergeSerial %+v", w, st, wantSt)
		}
		if got.NumEdges() != want.NumEdges() || got.NumVertexSlots() != want.NumNodes() {
			t.Fatalf("%d workers: %d edges over %d rows, want %d over %d",
				w, got.NumEdges(), got.NumVertexSlots(), want.NumEdges(), want.NumNodes())
		}
		if st.EdgesCopied+touchedRows != prev.TouchedEdges(batch) {
			t.Fatalf("%d workers: copied %d + rewritten %d edges, touched segments hold %d",
				w, st.EdgesCopied, touchedRows, prev.TouchedEdges(batch))
		}
		if !sameBytes(prev.ToCSR(), flat) {
			t.Fatalf("%d workers: merge wrote the version it started from", w)
		}
	}
	return got
}

// withGap appends a delta for a node well past the end of an n-row
// version, leaving whole empty segments between the old rows and it.
func withGap(r *rand.Rand, batch *delta.Batch, n int) {
	node := uint64(n + 5 + segRows + r.Intn(3*segRows))
	batch.Deltas = append(batch.Deltas, delta.Combined{
		Node: node, Inserted: true,
		Ins: []delta.Edge{{Dst: 0, W: 2}, {Dst: node, W: 3}},
	})
}

// TestSegmentedMergeMatchesSerial chains randomized merges — segment
// boundaries, whole-node deletes, nodes inserted and deleted within one
// window, new IDs past the last segment with gaps — through Segmented and
// compares every version with MergeSerial.
func TestSegmentedMergeMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(0x5e9))
	for iter := 0; iter < 120; iter++ {
		old := randomCSR(r, r.Intn(6*segRows))
		v := Cut(old)
		if !sameBytes(v.ToCSR(), old) || v.NewBytes() != old.Bytes() {
			t.Fatalf("iter %d: Cut does not round-trip", iter)
		}

		same, st := v.Merge(&delta.Batch{}, 3)
		if !sameBytes(same.ToCSR(), old) || st != (MergeStats{}) || same.NewBytes() != 0 {
			t.Fatalf("iter %d: empty batch built %d bytes, stats %+v", iter, same.NewBytes(), st)
		}
		for i := range v.segs {
			if same.segs[i] != v.segs[i] {
				t.Fatalf("iter %d: empty batch rebuilt segment %d", iter, i)
			}
		}

		for step := 0; step < 4; step++ {
			batch := randomBatch(r, v.NumVertexSlots())
			if r.Intn(3) == 0 {
				withGap(r, batch, v.NumVertexSlots())
			}
			next := checkSegmentedMerge(t, v, batch)
			for i := range v.segs {
				if spansSeg(batch, i) {
					continue
				}
				if next.segs[i] != v.segs[i] {
					t.Fatalf("iter %d step %d: untouched segment %d was not shared", iter, step, i)
				}
			}
			v = next
		}
	}
}

func spansSeg(batch *delta.Batch, seg int) bool {
	for _, sp := range spans(batch) {
		if sp.seg == seg {
			return true
		}
	}
	return false
}

// FuzzSegmentedMerge drives Segmented.Merge with fuzzer-shaped graphs over
// three segments and batches whose nodes reach two segments past the end,
// applying each batch twice so the second merge starts from a merged
// version rather than a Cut.
func FuzzSegmentedMerge(f *testing.F) {
	f.Add([]byte{1, 2, 17, 3, 33, 34, 15, 16}, []byte{1, 4, 16, 15, 60, 2, 75, 3})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 1, 1, 0}, []byte{0, 15, 0, 2, 1, 15})
	f.Fuzz(func(t *testing.T, graphBytes, deltaBytes []byte) {
		const n = 3 * segRows
		rows := make([]map[uint64]float64, n)
		for i := range rows {
			rows[i] = map[uint64]float64{}
		}
		for i := 0; i+1 < len(graphBytes); i += 2 {
			rows[graphBytes[i]%n][uint64(graphBytes[i+1]%n)] = float64(i%9 + 1)
		}
		old := &CSR{Off: make([]int64, n+1)}
		for u := range rows {
			for dst := uint64(0); dst < n; dst++ {
				if w, ok := rows[u][dst]; ok {
					old.Col = append(old.Col, dst)
					old.Val = append(old.Val, w)
				}
			}
			old.Off[u+1] = int64(len(old.Col))
		}

		// Each byte pair is (node, action): action 15 deletes the node,
		// even actions insert an edge, odd ones delete one.
		byNode := map[uint64]*delta.Combined{}
		for i := 0; i+1 < len(deltaBytes); i += 2 {
			node := uint64(deltaBytes[i]) % (n + 2*segRows)
			d, ok := byNode[node]
			if !ok {
				d = &delta.Combined{Node: node, Inserted: node >= n}
				byNode[node] = d
			}
			if d.Deleted {
				continue
			}
			switch act := deltaBytes[i+1]; {
			case act == 15:
				d.Deleted, d.Inserted = true, false
				d.Ins, d.Del = nil, nil
			case act%2 == 0:
				set(d, uint64(act/2)%n, float64(i%9+1))
			default:
				unset(d, uint64(act/2)%n)
			}
		}
		batch := &delta.Batch{}
		for node := uint64(0); node < n+2*segRows; node++ {
			if d, ok := byNode[node]; ok && !d.Empty() {
				batch.Deltas = append(batch.Deltas, *d)
			}
		}

		v := checkSegmentedMerge(t, Cut(old), batch)
		checkSegmentedMerge(t, v, batch)
	})
}
