package htap

import (
	"errors"
	"testing"
	"time"

	"h2tap/internal/csr"
	"h2tap/internal/faultinject"
)

// tightRetry keeps fault tests fast: two attempts per rung, microsecond
// backoff.
func tightRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 2, Backoff: 10 * time.Microsecond, MaxBackoff: 20 * time.Microsecond}
}

// TestHealthStateTable drives each replica kind through the full
// availability cycle — Healthy, Degraded under a persistent device fault,
// recovered after the device heals — asserting that analytics stay
// servable throughout and that the staleness bound tracks reality.
func TestHealthStateTable(t *testing.T) {
	cases := []struct {
		name    string
		replica ReplicaKind
		// faultOps wedge both the delta apply and the rebuild fallback.
		faultOps []string
	}{
		{"static", StaticCSR, []string{faultinject.GPUReplace}},
		{"dynamic", DynamicHash, []string{faultinject.GPUIngest, faultinject.GPUUpload}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, d := newLoadedEngine(t, Config{Replica: tc.replica, Retry: tightRetry()})
			if h, err := e.Health(); h != Healthy || err != nil {
				t.Fatalf("initial health = %v (%v)", h, err)
			}
			if !e.Staleness().Fresh() {
				t.Fatalf("initial staleness = %+v", e.Staleness())
			}

			runMixed(t, e, d, 200, 11)
			plan := faultinject.NewGPUPlan()
			for _, op := range tc.faultOps {
				plan.Arm(op, 1, faultinject.Persistent)
			}
			e.Device().SetFaultInjector(plan)

			// Degrade: the cycle climbs both rungs (2 apply attempts, a
			// fallback rebuild, 2 more attempts) and fails.
			rep, err := e.Propagate()
			if !errors.Is(err, faultinject.ErrGPUInjected) {
				t.Fatalf("propagate under persistent fault = %v", err)
			}
			if rep == nil || rep.Health != Degraded {
				t.Fatalf("report = %+v", rep)
			}
			if rep.Attempts != 4 {
				t.Fatalf("attempts = %d, want 2 per rung", rep.Attempts)
			}
			if !rep.FallbackRebuild {
				t.Fatal("failed cycle did not record the rebuild fallback")
			}
			if h, herr := e.Health(); h != Degraded || herr == nil {
				t.Fatalf("health after failed cycle = %v (%v)", h, herr)
			}
			if st := rep.Staleness; st.Fresh() || st.PendingRecords == 0 {
				t.Fatalf("degraded staleness = %+v, want pending records", st)
			}
			if e.DegradedCycles() != 1 || e.FallbackRebuilds() != 1 || e.Retries() != 4 {
				t.Fatalf("counters: degraded=%d fallback=%d retries=%d",
					e.DegradedCycles(), e.FallbackRebuilds(), e.Retries())
			}

			// Degraded availability: analytics answer from the last-good
			// replica, marked with the staleness bound.
			res, aerr := e.RunAnalytics(BFS, alivePersons(e, d)[0])
			if aerr != nil {
				t.Fatalf("degraded analytics failed: %v", aerr)
			}
			if !res.Degraded || res.Staleness.PendingRecords == 0 {
				t.Fatalf("degraded result = degraded:%v staleness:%+v", res.Degraded, res.Staleness)
			}
			if res.Levels == nil {
				t.Fatal("degraded analytics returned no answer")
			}

			// Recover: heal the device; the next cycle succeeds and the
			// engine returns to Healthy with a zero staleness bound.
			plan.Heal()
			rep2, err := e.Propagate()
			if err != nil {
				t.Fatalf("healed propagate: %v", err)
			}
			if rep2.Health != Healthy || !rep2.Staleness.Fresh() {
				t.Fatalf("recovered report = health:%v staleness:%+v", rep2.Health, rep2.Staleness)
			}
			if h, herr := e.Health(); h != Healthy || herr != nil {
				t.Fatalf("health after recovery = %v (%v)", h, herr)
			}
			if !e.Fresh() {
				t.Fatal("engine stale after recovery")
			}
			res2, err := e.RunAnalytics(BFS, alivePersons(e, d)[0])
			if err != nil || res2.Degraded {
				t.Fatalf("post-recovery analytics = %v degraded:%v", err, res2.Degraded)
			}
			// No committed update was lost across the degraded window.
			sr, err := e.Scrub()
			if err != nil {
				t.Fatalf("scrub: %v", err)
			}
			if sr.Diverged {
				t.Fatal("replica diverged across the degraded window")
			}
		})
	}
}

// TestTransientFaultAbsorbedByRetry checks rung 1 of the ladder: a single
// transient device fault costs one retry, not the cycle.
func TestTransientFaultAbsorbedByRetry(t *testing.T) {
	e, d := newLoadedEngine(t, Config{Replica: StaticCSR, Retry: tightRetry(), Workers: 2})
	runMixed(t, e, d, 200, 12)

	plan := faultinject.NewGPUPlan()
	plan.Arm(faultinject.GPUReplace, 1, faultinject.Transient)
	e.Device().SetFaultInjector(plan)

	rep, err := e.Propagate()
	if err != nil {
		t.Fatalf("propagate: %v", err)
	}
	if rep.Attempts != 2 || rep.RetryWall <= 0 {
		t.Fatalf("attempts=%d retryWall=%v, want a charged retry", rep.Attempts, rep.RetryWall)
	}
	if rep.Total.Wall < rep.RetryWall {
		t.Fatalf("Total.Wall %v < RetryWall %v: retry cost not accounted", rep.Total.Wall, rep.RetryWall)
	}
	if rep.FallbackRebuild {
		t.Fatal("transient fault escalated to rebuild")
	}
	if h, _ := e.Health(); h != Healthy {
		t.Fatalf("health = %v after absorbed fault", h)
	}
	if e.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", e.Retries())
	}
	if !e.Fresh() {
		t.Fatal("engine stale after absorbed fault")
	}
	want := csr.Build(e.Store(), e.ReplicaTS()-1)
	if !csr.Equal(e.HostCSR(), want) {
		t.Fatal("replica differs from build after retried apply")
	}
}

// TestIngestFailureFallsBackToRebuild checks rung 2: a persistent
// dynamic-ingest fault exhausts the delta apply, and the cycle completes
// through the full-rebuild fallback instead.
func TestIngestFailureFallsBackToRebuild(t *testing.T) {
	e, d := newLoadedEngine(t, Config{Replica: DynamicHash, Retry: tightRetry()})
	runMixed(t, e, d, 200, 13)

	plan := faultinject.NewGPUPlan()
	plan.Arm(faultinject.GPUIngest, 1, faultinject.Persistent)
	e.Device().SetFaultInjector(plan)

	rep, err := e.Propagate()
	if err != nil {
		t.Fatalf("propagate: %v", err)
	}
	if !rep.FallbackRebuild {
		t.Fatal("cycle did not record the rebuild fallback")
	}
	if e.FallbackRebuilds() != 1 {
		t.Fatalf("fallbackRebuilds = %d", e.FallbackRebuilds())
	}
	if h, _ := e.Health(); h != Healthy {
		t.Fatalf("health = %v after successful fallback", h)
	}
	if !e.Fresh() {
		t.Fatal("engine stale after fallback rebuild")
	}
	// The rebuild covered the staged records; nothing is pending and the
	// replica matches the main graph.
	sr, err := e.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if sr.Diverged {
		t.Fatal("replica diverged after fallback rebuild")
	}
}

// TestFailedCycleChargesPartialCost is the regression test for honest
// accounting on early error returns: a cycle that failed after scanning
// and retrying still reports the wall time it burned.
func TestFailedCycleChargesPartialCost(t *testing.T) {
	e, d := newLoadedEngine(t, Config{Replica: StaticCSR, Retry: tightRetry()})
	runMixed(t, e, d, 200, 15)

	plan := faultinject.NewGPUPlan()
	plan.Arm(faultinject.GPUReplace, 1, faultinject.Persistent)
	e.Device().SetFaultInjector(plan)

	rep, err := e.Propagate()
	if err == nil {
		t.Fatal("propagate succeeded under a wedged device")
	}
	if rep == nil {
		t.Fatal("failed cycle returned no report")
	}
	if rep.ScanWall <= 0 {
		t.Fatal("failed cycle reports no scan cost")
	}
	if rep.RetryWall <= 0 {
		t.Fatal("failed cycle reports no retry cost")
	}
	if rep.Total.Wall < rep.ScanWall+rep.RetryWall {
		t.Fatalf("Total.Wall %v < scan %v + retry %v: partial cost dropped",
			rep.Total.Wall, rep.ScanWall, rep.RetryWall)
	}
}

// TestScrubRepairsDivergence forces a corrupted replica and checks that
// Scrub detects the divergence and rebuilds.
func TestScrubRepairsDivergence(t *testing.T) {
	e, d := newLoadedEngine(t, Config{Replica: StaticCSR})
	runMixed(t, e, d, 200, 16)
	if _, err := e.Propagate(); err != nil {
		t.Fatal(err)
	}
	sr, err := e.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if sr.Diverged {
		t.Fatal("clean replica reported divergent")
	}

	// Corrupt the replica: drop an edge from the host copy.
	e.replicaMu.Lock()
	corrupted := csr.Build(e.store, 0) // ancient snapshot, certainly different
	if _, err := e.staticRep.Replace(csr.Cut(corrupted)); err != nil {
		t.Fatal(err)
	}
	e.replicaMu.Unlock()

	sr, err = e.Scrub()
	if err != nil {
		t.Fatalf("scrub of corrupted replica: %v", err)
	}
	if !sr.Diverged || !sr.Rebuilt {
		t.Fatalf("scrub = %+v, want diverged and rebuilt", sr)
	}
	// The forced rebuild restored integrity.
	sr, err = e.Scrub()
	if err != nil {
		t.Fatalf("re-scrub: %v", err)
	}
	if sr.Diverged {
		t.Fatal("replica still divergent after forced rebuild")
	}
	if h, _ := e.Health(); h != Healthy {
		t.Fatalf("health = %v after repair", h)
	}
}
