package h2tap

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"h2tap/internal/faultinject"
)

// TestErrBackpressureSentinel pins the satellite contract: ErrBackpressure
// is an errors.New sentinel that round-trips through the facade's commit
// path wrapped (never returned bare), so clients must match it with
// errors.Is — exactly what the network service layer does to map it onto
// HTTP 503 + Retry-After.
func TestErrBackpressureSentinel(t *testing.T) {
	db, ids := seedDB(t, Options{
		DeltaHighWater: 4,
		Retry:          RetryPolicy{MaxAttempts: 2, Backoff: 10 * time.Microsecond, MaxBackoff: 20 * time.Microsecond},
	}, 4)

	plan := faultinject.NewGPUPlan()
	plan.Arm(faultinject.GPUReplace, 1, faultinject.Persistent)
	db.Engine().Device().SetFaultInjector(plan)

	commitEdge := func(i int) error {
		tx := db.Begin()
		n, err := tx.AddNode("Person", nil)
		if err != nil {
			tx.Abort()
			return err
		}
		if _, err := tx.AddRel(ids[i%4], n, "knows", float64(i)); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	if err := commitEdge(0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Propagate(); !errors.Is(err, faultinject.ErrGPUInjected) {
		t.Fatalf("propagate under wedged device = %v", err)
	}

	var got error
	for i := 1; i < 16 && got == nil; i++ {
		if err := commitEdge(i); err != nil {
			got = err
		}
	}
	if got == nil {
		t.Fatal("no commit hit backpressure")
	}
	if !errors.Is(got, ErrBackpressure) {
		t.Fatalf("errors.Is(%v, ErrBackpressure) = false", got)
	}
	if got == ErrBackpressure { //nolint:errorlint // asserting wrapping on purpose
		t.Fatal("commit returned the bare sentinel; want it wrapped with commit-path context")
	}
	if !strings.Contains(got.Error(), "high-water") {
		t.Fatalf("wrapped message lost the sentinel text: %q", got)
	}
}

// TestBackpressureRaceHealthFlips is the facade-level race test: committers
// hammer the backpressure guard while the engine flips Healthy↔Degraded
// under an arming/healing fault plan. Run under -race it checks the
// commit-path engineRef/Backpressure reads against setHealth writes; the
// invariants checked here are weaker but load-bearing — commits only ever
// fail with ErrBackpressure, and the system always recovers to Healthy
// with commits admitted again.
func TestBackpressureRaceHealthFlips(t *testing.T) {
	db, ids := seedDB(t, Options{
		DeltaHighWater: 8,
		Retry:          RetryPolicy{MaxAttempts: 1, Backoff: 10 * time.Microsecond, MaxBackoff: 20 * time.Microsecond},
	}, 8)

	plan := faultinject.NewGPUPlan()
	db.Engine().Device().SetFaultInjector(plan)

	var (
		stop        atomic.Bool
		committed   atomic.Int64
		backpressed atomic.Int64
	)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				tx := db.Begin()
				n, err := tx.AddNode("Person", nil)
				if err != nil {
					tx.Abort()
					t.Errorf("AddNode: %v", err)
					return
				}
				if _, err := tx.AddRel(ids[(w+i)%8], n, "knows", float64(i)); err != nil {
					tx.Abort()
					t.Errorf("AddRel: %v", err)
					return
				}
				switch err := tx.Commit(); {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, ErrBackpressure):
					backpressed.Add(1)
				default:
					t.Errorf("commit failed with %v, want nil or ErrBackpressure", err)
					return
				}
			}
		}(w)
	}

	// Flip the engine: wedge → failed propagate (Degraded) → heal →
	// successful propagate (Healthy), repeatedly, concurrent with commits.
	flips := 20
	if testing.Short() {
		flips = 6
	}
	for f := 0; f < flips; f++ {
		plan.Arm(faultinject.GPUReplace, 1, faultinject.Persistent)
		plan.Arm(faultinject.GPUUpload, 1, faultinject.Persistent)
		db.Propagate() //nolint:errcheck // expected to fail while wedged
		plan.Heal()
		if _, err := db.Propagate(); err != nil {
			t.Errorf("healed propagate %d: %v", f, err)
			break
		}
	}
	// The flip storm can outrun the committer goroutines' first
	// iterations; hold the system Healthy until at least one commit has
	// landed so the final assertions are about behavior, not scheduling.
	for start := time.Now(); committed.Load() == 0 && time.Since(start) < 5*time.Second; {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Settle: one final healthy cycle must lift any lingering backpressure.
	if _, err := db.Propagate(); err != nil {
		t.Fatalf("final propagate: %v", err)
	}
	if h, ferr := db.Health(); h != Healthy {
		t.Fatalf("final health = %v (%v)", h, ferr)
	}
	tx := db.Begin()
	if _, err := tx.AddNode("Person", nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after settle: %v", err)
	}
	if committed.Load() == 0 {
		t.Fatal("no commit succeeded during the flip storm")
	}
	t.Logf("flips=%d committed=%d backpressured=%d degraded_cycles=%d",
		flips, committed.Load(), backpressed.Load(), db.Stats().DegradedCycles)
}
