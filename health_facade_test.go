package h2tap

import (
	"errors"
	"testing"
	"time"

	"h2tap/internal/faultinject"
)

// seedDB opens a volatile database with n connected Person nodes committed
// and the engine started.
func seedDB(t *testing.T, opts Options, n int) (*DB, []NodeID) {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tx := db.Begin()
	ids := make([]NodeID, n)
	for i := range ids {
		if ids[i], err = tx.AddNode("Person", nil); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if _, err := tx.AddRel(ids[i-1], ids[i], "knows", 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.StartEngine(); err != nil {
		t.Fatal(err)
	}
	return db, ids
}

// TestHealthAndScrubThroughFacade exercises the health surface on a clean
// database: Healthy before and after the engine starts, zero staleness
// once propagated, and a clean scrub.
func TestHealthAndScrubThroughFacade(t *testing.T) {
	db, ids := seedDB(t, Options{}, 4)
	if h, err := db.Health(); h != Healthy || err != nil {
		t.Fatalf("health = %v (%v)", h, err)
	}
	if _, err := db.RunAnalytics(BFS, ids[0]); err != nil {
		t.Fatal(err)
	}
	if st := db.ReplicaStaleness(); !st.Fresh() {
		t.Fatalf("staleness after analytics = %+v", st)
	}
	sr, err := db.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if sr.Diverged {
		t.Fatal("clean replica reported divergent")
	}
	if st := db.Stats(); st.Health != Healthy || st.DegradedCycles != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBackpressureWhenDegradedAndOverHighWater checks the facade half of
// the high-water backstop: with the engine Degraded (device wedged) and
// the delta store past its high-water mark, commits fail with
// ErrBackpressure until a propagation cycle recovers the engine.
func TestBackpressureWhenDegradedAndOverHighWater(t *testing.T) {
	db, ids := seedDB(t, Options{
		DeltaHighWater: 6,
		Retry:          RetryPolicy{MaxAttempts: 2, Backoff: 10 * time.Microsecond, MaxBackoff: 20 * time.Microsecond},
	}, 4)

	// Wedge the device: every replica apply and rebuild path faults.
	plan := faultinject.NewGPUPlan()
	plan.Arm(faultinject.GPUReplace, 1, faultinject.Persistent)
	db.Engine().Device().SetFaultInjector(plan)

	commitEdge := func(i int) error {
		tx := db.Begin()
		if _, err := tx.AddRel(ids[i%4], ids[(i+2)%4], "knows", float64(i)); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}

	// Degrade the engine: a propagation attempt fails through every rung.
	if err := commitEdge(0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Propagate(); !errors.Is(err, faultinject.ErrGPUInjected) {
		t.Fatalf("propagate under wedged device = %v", err)
	}
	if h, _ := db.Health(); h != Degraded {
		t.Fatalf("health = %v", h)
	}

	// Commits still succeed below the high-water mark...
	var hitBackpressure bool
	for i := 1; i < 12; i++ {
		err := commitEdge(i)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrBackpressure) {
			t.Fatalf("commit %d failed with %v, want ErrBackpressure", i, err)
		}
		hitBackpressure = true
		break
	}
	// ...and are rejected once the store grows past it.
	if !hitBackpressure {
		t.Fatalf("no commit hit backpressure (records=%d, high water=%d)",
			db.DeltaStore().Records(), db.DeltaStore().HighWater())
	}

	// Recovery lifts the backpressure.
	plan.Heal()
	if _, err := db.Propagate(); err != nil {
		t.Fatalf("healed propagate: %v", err)
	}
	if h, _ := db.Health(); h != Healthy {
		t.Fatalf("health after recovery = %v", h)
	}
	tx := db.Begin()
	if _, err := tx.AddNode("Person", nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	st := db.Stats()
	if st.DegradedCycles == 0 || st.Retries == 0 {
		t.Fatalf("stats after degraded window = %+v", st)
	}
}
