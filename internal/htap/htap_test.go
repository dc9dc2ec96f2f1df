package htap

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"h2tap/internal/analytics"
	"h2tap/internal/costmodel"
	"h2tap/internal/csr"
	"h2tap/internal/deltastore"
	"h2tap/internal/graph"
	"h2tap/internal/ldbc"
	"h2tap/internal/mvto"
	"h2tap/internal/obs"
	"h2tap/internal/workload"
)

func newLoadedEngine(t *testing.T, cfg Config) (*Engine, *ldbc.Dataset) {
	t.Helper()
	d := ldbc.GenerateSNB(ldbc.SNBConfig{SF: 1, Downscale: 100, Seed: 1})
	s := graph.NewStore()
	if _, err := d.Load(s); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func runMixed(t *testing.T, e *Engine, d *ldbc.Dataset, n int, seed int64) {
	t.Helper()
	ts := e.Store().Oracle().LastCommitted()
	win := workload.DegreeWindow(e.Store(), ts, alivePersons(e, d), workload.HiDeg, 20)
	g := workload.NewGenerator(win, d.Posts, seed)
	res := workload.Run(e.Store(), g.Mixed(n))
	if res.Committed == 0 {
		t.Fatal("mixed workload committed nothing")
	}
}

func alivePersons(e *Engine, d *ldbc.Dataset) []graph.NodeID {
	ts := e.Store().Oracle().LastCommitted()
	var out []graph.NodeID
	for _, id := range d.Persons {
		if e.Store().NodeExistsAt(id, ts) {
			out = append(out, id)
		}
	}
	return out
}

func TestEngineInitFresh(t *testing.T) {
	e, _ := newLoadedEngine(t, Config{Replica: StaticCSR})
	if !e.Fresh() {
		t.Fatal("engine stale right after init")
	}
	// Replica equals a direct build.
	want := csr.Build(e.Store(), e.Store().Oracle().LastCommitted())
	if !csr.Equal(e.HostCSR(), want) {
		t.Fatal("initial replica differs from build")
	}
	if e.Device().MemUsed() == 0 {
		t.Fatal("replica occupies no device memory")
	}
}

func TestStaleThenPropagate(t *testing.T) {
	e, d := newLoadedEngine(t, Config{Replica: StaticCSR})
	runMixed(t, e, d, 300, 7)
	if e.Fresh() {
		t.Fatal("engine fresh despite committed updates")
	}
	rep, err := e.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Triggered || rep.Records == 0 || rep.Rebuild {
		t.Fatalf("report = %+v", rep)
	}
	if rep.TransferSim <= 0 {
		t.Fatal("no transfer charged")
	}
	if !e.Fresh() {
		t.Fatal("engine stale after propagation")
	}
	want := csr.Build(e.Store(), rep.TS-1)
	if !csr.Equal(e.HostCSR(), want) {
		t.Fatal("replica diverged after propagation")
	}
}

func TestPropertyOnlyTxnsStayFresh(t *testing.T) {
	e, d := newLoadedEngine(t, Config{Replica: StaticCSR})
	tx := e.Store().Begin()
	if err := tx.SetNodeProp(d.Persons[0], "age", graph.Int(30)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if !e.Fresh() {
		t.Fatal("property-only commit marked replica stale")
	}
}

func TestRunAnalyticsTriggersPropagation(t *testing.T) {
	e, d := newLoadedEngine(t, Config{Replica: StaticCSR})
	runMixed(t, e, d, 200, 3)
	res, err := e.RunAnalytics(BFS, d.Persons[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Propagation.Triggered {
		t.Fatal("no propagation before analytics on stale replica")
	}
	if res.KernelSim <= 0 || res.TotalLatency() <= 0 {
		t.Fatalf("latency breakdown = %+v", res)
	}
	// Correctness: same result as running on a fresh rebuild.
	want, _ := analytics.BFS(analytics.CSRGraph{C: csr.Build(e.Store(), res.Propagation.TS-1)}, d.Persons[0])
	if !reflect.DeepEqual(res.Levels, want) {
		t.Fatal("analytics after propagation differ from rebuild truth")
	}
	// Second run without new commits: no propagation.
	res2, err := e.RunAnalytics(BFS, d.Persons[0])
	if err != nil {
		t.Fatal(err)
	}
	if res2.Propagation.Triggered {
		t.Fatal("redundant propagation on fresh replica")
	}
}

func TestDynamicReplicaPath(t *testing.T) {
	e, d := newLoadedEngine(t, Config{Replica: DynamicHash})
	runMixed(t, e, d, 300, 5)
	res, err := e.RunAnalytics(PageRank, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Propagation.Triggered {
		t.Fatal("dynamic path skipped propagation")
	}
	// Cross-check against a static engine fed the same final graph state.
	want, _ := analytics.PageRank(
		analytics.CSRGraph{C: csr.Build(e.Store(), res.Propagation.TS-1)}, 10, 0.85)
	for i := range want {
		if math.Abs(res.Ranks[i]-want[i]) > 1e-9 {
			t.Fatalf("dynamic-path PageRank differs at %d", i)
		}
	}
}

// TestDynamicCycleReportsIngest: a dynamic-replica cycle reports the
// Algorithm 1 ingest kernel in IngestSim and only the coalesced transfer in
// TransferSim. Together they are what the device was charged — the single
// summed figure TransferSim used to carry — and the ingest phase histogram
// observes.
func TestDynamicCycleReportsIngest(t *testing.T) {
	o := obs.New()
	e, d := newLoadedEngine(t, Config{Replica: DynamicHash, Obs: o})
	runMixed(t, e, d, 300, 5)
	before := e.Device().SimTime()
	rep, err := e.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rebuild || rep.Records == 0 {
		t.Fatalf("expected a delta ingest cycle, got %+v", rep)
	}
	if rep.IngestSim <= 0 || rep.TransferSim <= 0 {
		t.Fatalf("IngestSim = %v, TransferSim = %v: want both charged", rep.IngestSim, rep.TransferSim)
	}
	if charged := e.Device().SimTime() - before; rep.TransferSim+rep.IngestSim != charged {
		t.Fatalf("TransferSim %v + IngestSim %v != device charge %v", rep.TransferSim, rep.IngestSim, charged)
	}
	mustContain(t, exposition(t, o), `h2tap_propagation_phase_seconds_count{phase="ingest"} 1`)
}

func TestAllAnalyticsKinds(t *testing.T) {
	e, d := newLoadedEngine(t, Config{Replica: StaticCSR})
	for _, kind := range []AnalyticsKind{BFS, PageRank, SSSP, WCC, CDLP, LCC} {
		res, err := e.RunAnalytics(kind, d.Persons[0])
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		switch kind {
		case BFS:
			if res.Levels == nil {
				t.Fatalf("%s: no result", kind)
			}
		case PageRank:
			if res.Ranks == nil {
				t.Fatalf("%s: no result", kind)
			}
		case SSSP:
			if res.Dists == nil {
				t.Fatalf("%s: no result", kind)
			}
		case WCC, CDLP:
			if res.Comp == nil {
				t.Fatalf("%s: no result", kind)
			}
		case LCC:
			if res.Coef == nil {
				t.Fatalf("%s: no result", kind)
			}
		}
		if res.KernelSim <= 0 {
			t.Fatalf("%s: no simulated kernel time", kind)
		}
	}
	if _, err := e.RunAnalytics("pagerank2", 0); !errors.Is(err, ErrUnknownAnalytics) {
		t.Fatalf("unknown kind = %v", err)
	}
}

func TestCostModelRebuildPath(t *testing.T) {
	// A model whose threshold is tiny forces rebuild mode quickly.
	m := &costmodel.Model{
		Scan:    costmodel.Linear{A: 0, B: 1}, // absurdly expensive per delta
		Modify:  costmodel.Linear{A: 0, B: 1},
		Copy:    costmodel.Linear{A: 0, B: 0},
		Rebuild: costmodel.Linear{A: 10, B: 0}, // rebuild costs 10s flat → threshold = 5
	}
	e, d := newLoadedEngine(t, Config{Replica: StaticCSR, CostModel: m})
	if e.DeltaStore().Threshold() != 5 {
		t.Fatalf("threshold = %d, want 5", e.DeltaStore().Threshold())
	}
	runMixed(t, e, d, 400, 11)
	if e.DeltaStore().DeltaMode() {
		t.Fatal("delta mode survived threshold overflow")
	}
	rep, err := e.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rebuild {
		t.Fatal("propagation did not rebuild")
	}
	if !e.DeltaStore().DeltaMode() {
		t.Fatal("delta mode not re-enabled after rebuild (§6.4)")
	}
	if e.Rebuilds() != 1 {
		t.Fatalf("rebuilds = %d", e.Rebuilds())
	}
	// Replica consistent after the rebuild path.
	want := csr.Build(e.Store(), rep.TS-1)
	if !csr.Equal(e.HostCSR(), want) {
		t.Fatal("rebuilt replica diverged")
	}
	// And the delta path works again afterwards.
	runMixed(t, e, d, 3, 13)
	rep2, err := e.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Rebuild {
		t.Fatal("second propagation should merge, not rebuild")
	}
}

func TestQueueConcurrentAndStale(t *testing.T) {
	e, d := newLoadedEngine(t, Config{Replica: StaticCSR})
	q := NewQueue(e)

	// Fresh batch: all run on the same replica version.
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := q.Submit(BFS, d.Persons[i])
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Propagations() != 0 {
		t.Fatalf("fresh submissions triggered %d propagations", e.Propagations())
	}

	// Stale request: exactly one propagation.
	runMixed(t, e, d, 100, 21)
	tk1, _ := q.Submit(PageRank, 0)
	tk2, _ := q.Submit(SSSP, d.Persons[0])
	r1, err := tk1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk2.Wait(); err != nil {
		t.Fatal(err)
	}
	if !r1.Propagation.Triggered {
		t.Fatal("stale request did not propagate")
	}
	if e.Propagations() != 1 {
		t.Fatalf("propagations = %d, want 1 (second request reuses fresh replica)", e.Propagations())
	}

	q.Close()
	if _, err := q.Submit(BFS, 0); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("submit after close = %v", err)
	}
}

func TestCalibrateProducesUsableModel(t *testing.T) {
	d := ldbc.GenerateSNB(ldbc.SNBConfig{SF: 1, Downscale: 50, Seed: 1})
	s := graph.NewStore()
	if _, err := d.Load(s); err != nil {
		t.Fatal(err)
	}
	m, err := Calibrate(s)
	if err != nil {
		t.Fatal(err)
	}
	// The fitted model must at least order the regimes correctly: rebuild
	// cost grows with graph size, scan cost with delta count.
	if m.Rebuild.Predict(1e6) <= m.Rebuild.Predict(1e3) {
		t.Fatalf("rebuild model not increasing: %+v", m.Rebuild)
	}
	if m.Scan.Predict(1e6) <= m.Scan.Predict(1e3) {
		t.Fatalf("scan model not increasing: %+v", m.Scan)
	}
}

func TestNewEngineWithExistingCapturer(t *testing.T) {
	d := ldbc.GenerateSNB(ldbc.SNBConfig{SF: 1, Downscale: 100, Seed: 1})
	s := graph.NewStore()
	ds := deltastore.NewVolatile()
	s.AddCapturer(ds)
	if _, err := d.Load(s); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngineWithExistingCapturer(s, Config{}); err == nil {
		t.Fatal("missing DeltaStore accepted")
	}
	e, err := NewEngineWithExistingCapturer(s, Config{DeltaStore: ds})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-engine deltas were consumed (the load predates the capturer, but
	// even explicit pre-engine commits must not double-apply).
	if e.DeltaStore().PendingAt(1 << 40) {
		t.Fatal("pre-engine deltas still pending")
	}
	// One capturer only: a commit produces exactly one batch of records.
	tx := s.Begin()
	a := d.Persons[0]
	b := d.Posts[0]
	if _, err := tx.AddRel(a, b, "likes", 1); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if got := ds.Records(); got != 1 {
		t.Fatalf("records after one commit = %d (double registration?)", got)
	}
}

func TestReplicaKindStrings(t *testing.T) {
	if StaticCSR.String() != "static-csr" || DynamicHash.String() != "dynamic" {
		t.Fatal("replica kind names wrong")
	}
}

func TestDynamicRebuildPath(t *testing.T) {
	m := &costmodel.Model{
		Scan:    costmodel.Linear{B: 1},
		Modify:  costmodel.Linear{B: 1},
		Rebuild: costmodel.Linear{A: 10},
	}
	e, d := newLoadedEngine(t, Config{Replica: DynamicHash, CostModel: m})
	runMixed(t, e, d, 400, 17)
	if e.DeltaStore().DeltaMode() {
		t.Fatal("delta mode survived threshold overflow")
	}
	rep, err := e.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rebuild {
		t.Fatal("dynamic replica did not rebuild")
	}
	// The rebuilt dynamic replica serves correct analytics.
	res, err := e.RunAnalytics(BFS, d.Persons[0])
	if err != nil {
		t.Fatal(err)
	}
	want, _ := analytics.BFS(analytics.CSRGraph{C: csr.Build(e.Store(), rep.TS-1)}, d.Persons[0])
	if !reflect.DeepEqual(res.Levels, want) {
		t.Fatal("dynamic rebuild produced wrong replica")
	}
}

// The §4.3 pipeline under fire: a continuous update stream racing a stream
// of queued analytics. Every result must be internally consistent and the
// freshness watermark must only move forward.
func TestQueuePipelineUnderConcurrentUpdates(t *testing.T) {
	e, d := newLoadedEngine(t, Config{Replica: StaticCSR})
	q := NewQueue(e)
	defer q.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ts := e.Store().Oracle().LastCommitted()
		win := workload.DegreeWindow(e.Store(), ts, d.Persons, workload.HiDeg, 50)
		g := workload.NewGenerator(win, d.Posts, 77)
		for {
			select {
			case <-stop:
				return
			default:
			}
			workload.Run(e.Store(), g.Mixed(50))
		}
	}()

	var lastTS mvto.TS
	for round := 0; round < 15; round++ {
		t1, err := q.Submit(BFS, d.Persons[0])
		if err != nil {
			t.Fatal(err)
		}
		t2, err := q.Submit(WCC, 0)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := t1.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := t2.Wait(); err != nil {
			t.Fatal(err)
		}
		if r1.Levels[d.Persons[0]] != 0 {
			t.Fatal("BFS source corrupted")
		}
		cur := e.ReplicaTS()
		if cur < lastTS {
			t.Fatalf("freshness watermark regressed: %d < %d", cur, lastTS)
		}
		lastTS = cur
	}
	close(stop)
	<-done

	// Quiesce, propagate, verify the replica converged to the main graph.
	rep, err := e.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	want := csr.Build(e.Store(), rep.TS-1)
	if !csr.Equal(e.HostCSR(), want) {
		t.Fatal("replica diverged after pipelined rounds")
	}
}

func TestQueueCloseIdempotent(t *testing.T) {
	e, _ := newLoadedEngine(t, Config{Replica: StaticCSR})
	q := NewQueue(e)
	q.Close()
	q.Close()
}

// TestEngineStartWatermarkExcludesInFlight starts an engine over a store
// whose delta store is already registered while an older transaction is
// still in flight behind a newer commit. The initial replica must not claim
// the in-flight transaction, and must pick it up once it commits.
func TestEngineStartWatermarkExcludesInFlight(t *testing.T) {
	s := graph.NewStore()
	ds := deltastore.NewVolatile()
	s.AddCapturer(ds)
	setup := s.Begin()
	a, err := setup.AddNode("N", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setup.AddNode("N", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	older := s.Begin()
	if _, err := older.AddRel(a, b, "E", 1); err != nil {
		t.Fatal(err)
	}
	newer := s.Begin()
	if _, err := newer.AddNode("N", nil); err != nil {
		t.Fatal(err)
	}
	if err := newer.Commit(); err != nil {
		t.Fatal(err)
	}

	e, err := NewEngineWithExistingCapturer(s, Config{Replica: StaticCSR, DeltaStore: ds})
	if err != nil {
		t.Fatal(err)
	}
	if w := e.ReplicaTS(); w > older.TS() {
		t.Fatalf("replica watermark %d covers in-flight transaction %d", w, older.TS())
	}
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Propagate(); err != nil {
		t.Fatal(err)
	}
	if dst, _ := e.HostCSR().Row(a); len(dst) != 1 || dst[0] != b {
		t.Fatalf("row %d = %v after propagation, want [%d]", a, dst, b)
	}
	if w := e.ReplicaTS(); w <= newer.TS() {
		t.Fatalf("replica watermark %d after propagation, want past %d", w, newer.TS())
	}
}
