package htap

import (
	"sync"
	"testing"

	"h2tap/internal/csr"
	"h2tap/internal/workload"
)

// runEngineRace races committer goroutines and an analyst against
// propagation cycles and returns the total records the cycles consumed
// (including those the analyst's own catch-up propagations consumed). Each
// mid-race cycle only checks structural invariants (concurrent commits make
// the exact replica content a moving target); the caller quiesces and
// verifies equivalence.
func runEngineRace(t *testing.T, e *Engine, ops []workload.Op, committers, cycles int) int {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	var res workload.Result
	go func() {
		defer wg.Done()
		res = workload.RunParallel(e.Store(), ops, committers)
	}()
	stop := make(chan struct{})
	var analyst sync.WaitGroup
	var analystRecords int
	analyst.Add(1)
	go func() {
		defer analyst.Done()
		analystRecords = raceAnalyst(t, e, stop)
	}()
	stopAnalyst := sync.OnceFunc(func() {
		close(stop)
		analyst.Wait()
	})
	defer stopAnalyst()

	consumed := 0
	lastTS := e.ReplicaTS()
	for i := 0; i < cycles; i++ {
		rep, err := e.Propagate()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		consumed += rep.Records
		if rep.TS < lastTS {
			t.Fatalf("cycle %d: replica TS went backwards (%d -> %d)", i, lastTS, rep.TS)
		}
		lastTS = rep.TS
		if c := e.HostCSR(); c != nil {
			if err := c.Validate(); err != nil {
				t.Fatalf("cycle %d: replica CSR invalid: %v", i, err)
			}
		}
	}
	wg.Wait()
	stopAnalyst()
	consumed += analystRecords
	if res.Committed == 0 {
		t.Fatal("committers committed nothing")
	}
	return consumed
}

// raceAnalyst cycles analytics on the live engine until stop closes: BFS
// and WCC through RunAnalytics, then a walk over every row of a pinned
// replica. Every BFS must place its source at level 0 and every row must be
// strictly sorted. It returns the records its catch-up propagations
// consumed.
func raceAnalyst(t *testing.T, e *Engine, stop <-chan struct{}) int {
	consumed := 0
	for i := uint64(0); ; i++ {
		view, _, release := e.AcquireReplica()
		slots := uint64(view.NumVertexSlots())
		for u := uint64(0); u < slots; u++ {
			dst, w := view.Row(u)
			if len(dst) != len(w) {
				t.Errorf("row %d: %d destinations, %d weights", u, len(dst), len(w))
			}
			for k := 1; k < len(dst); k++ {
				if dst[k] <= dst[k-1] {
					t.Errorf("row %d not strictly sorted at %d: %v", u, k, dst)
					break
				}
			}
		}
		release()
		src := i * 7919 % slots
		for _, kind := range []AnalyticsKind{BFS, WCC} {
			res, err := e.RunAnalytics(kind, src)
			if err != nil {
				t.Errorf("%s: %v", kind, err)
				return consumed
			}
			consumed += res.Propagation.Records
			if kind == BFS && res.Levels[src] != 0 {
				t.Errorf("BFS from %d: source at level %d", src, res.Levels[src])
			}
		}
		select {
		case <-stop:
			return consumed
		default:
		}
	}
}

// TestEnginePropagateRaceStress is the full-engine extension of the delta
// store's capture race test: N committer goroutines race M Propagate
// cycles. After quiescing and one final cycle, the replica must equal the
// committed-prefix CSR, and the cycles together must have consumed every
// captured record exactly once — a record applied twice or dropped would
// break either the record accounting or the final equivalence (a
// re-applied insert resurrects an edge a later delta deleted).
func TestEnginePropagateRaceStress(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"static-serial", Config{Replica: StaticCSR, Workers: 1}},
		{"static-parallel", Config{Replica: StaticCSR, Workers: 4}},
		{"dynamic-parallel", Config{Replica: DynamicHash, Workers: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, d := newLoadedEngine(t, tc.cfg)
			ts := e.Store().Oracle().LastCommitted()
			win := workload.DegreeWindow(e.Store(), ts, alivePersons(e, d), workload.HiDeg, 20)
			nOps := 4000
			if testing.Short() {
				nOps = 800
			}
			g := workload.NewGenerator(win, d.Posts, 42)
			ops := g.Mixed(nOps)

			consumed := runEngineRace(t, e, ops, 6, 8)

			// Quiesce: committers are done; one final cycle drains whatever
			// the racing cycles skipped (records unpublished at scan time).
			rep, err := e.Propagate()
			if err != nil {
				t.Fatal(err)
			}
			consumed += rep.Records

			if total := int(e.DeltaStore().Records()); consumed != total {
				t.Fatalf("cycles consumed %d records, store captured %d (lost or double-applied)",
					consumed, total)
			}
			want := csr.Build(e.Store(), rep.TS-1)
			var got *csr.CSR
			switch tc.cfg.Replica {
			case StaticCSR:
				got = e.HostCSR()
			case DynamicHash:
				got = e.dynRep.Graph().ToCSR()
				if err := e.dynRep.Graph().Validate(); err != nil {
					t.Fatal(err)
				}
			}
			if !csr.Equal(got, want) {
				n := got.NumNodes()
				if want.NumNodes() > n {
					n = want.NumNodes()
				}
				diffs := 0
				for u := 0; u < n && diffs < 5; u++ {
					gc, gv := got.Row(uint64(u))
					wc, wv := want.Row(uint64(u))
					if len(gc) != len(wc) {
						t.Logf("node %d: replica row %v %v, store row %v %v", u, gc, gv, wc, wv)
						diffs++
						continue
					}
					for i := range gc {
						if gc[i] != wc[i] || gv[i] != wv[i] {
							t.Logf("node %d: replica row %v %v, store row %v %v", u, gc, gv, wc, wv)
							diffs++
							break
						}
					}
				}
				t.Fatal("replica diverged from committed-prefix CSR after quiesce")
			}
			if !e.Fresh() {
				t.Fatal("engine stale after quiesce + propagate")
			}
		})
	}
}

// TestPropagateOverlapsTransfer checks the workers>1 static path: merged
// node-range segments stream to the device while later shards merge, so
// the report carries the full bus time and only the exposed tail on the
// critical path — and the replica bytes are unaffected by the pipelining.
func TestPropagateOverlapsTransfer(t *testing.T) {
	e, d := newLoadedEngine(t, Config{Replica: StaticCSR, Workers: 4})
	runMixed(t, e, d, 300, 11)
	rep, err := e.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Overlapped || rep.Workers != 4 {
		t.Fatalf("report = %+v, want overlapped with 4 workers", rep)
	}
	if rep.TransferBusSim <= 0 {
		t.Fatal("no bus time charged")
	}
	if rep.TransferSim > rep.TransferBusSim {
		t.Fatalf("exposed transfer %v exceeds bus time %v", rep.TransferSim, rep.TransferBusSim)
	}
	want := csr.Build(e.Store(), rep.TS-1)
	if !csr.Equal(e.HostCSR(), want) {
		t.Fatal("replica diverged after overlapped propagation")
	}
	// The device must have been charged the whole CSR, not just the tail.
	if e.Device().BytesToDevice() < e.HostCSR().Bytes() {
		t.Fatal("streamed replace moved fewer bytes than the replica holds")
	}
}
