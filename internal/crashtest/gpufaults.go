// GPU-fault enumeration: the device-side sibling of the filesystem crash
// harness. A deterministic commit + propagate + analytics workload runs
// against the simulated GPU with a fault plan armed at the Nth occurrence
// of one device operation (malloc, upload, replace, ingest, kernel
// launch), transient or persistent, and the propagation
// invariants are asserted after every cycle:
//
//   - Failure-atomic consumption: a failed propagation cycle consumes
//     nothing — the delta store's pending-record count is unchanged, so the
//     consumed prefix can never run ahead of the replica.
//   - No committed update lost: after the device heals, one clean
//     propagation converges (engine fresh) and a replica scrub against a
//     main-graph snapshot at the replica's own watermark finds zero
//     divergence.
//   - Degraded availability: while propagation is failing, analytics still
//     answer from the last-good replica, marked Degraded with a non-zero
//     staleness bound (unless the analytics kernel launch is itself the
//     faulted operation, which surfaces the injected error).
package crashtest

import (
	"errors"
	"fmt"
	"time"

	"h2tap/internal/faultinject"
	"h2tap/internal/gpu"
	"h2tap/internal/graph"
	"h2tap/internal/htap"
	"h2tap/internal/mvto"
)

// GPUFaultResult records the outcome of one injected-GPU-fault run.
type GPUFaultResult struct {
	// Replica is the replica kind the run used.
	Replica htap.ReplicaKind
	// Op is the faulted device operation.
	Op string
	// N is the 1-based occurrence the fault hit.
	N int64
	// Kind is Transient or Persistent.
	Kind faultinject.GPUFaultKind
	// Injected is how many times the fault actually fired.
	Injected int64
	// Err is the first violated invariant, nil when all held.
	Err error
}

// GPUFaultReport summarizes a GPU-fault enumeration.
type GPUFaultReport struct {
	// PerOp is the fault-free occurrence count of each device operation.
	PerOp map[string]int64
	// Results holds one entry per injected fault.
	Results []GPUFaultResult
	// Failures counts results with a non-nil Err.
	Failures int
}

// gpuWorkers pins the propagation worker count so the device-operation
// sequence (streamed vs plain replace, shard counts) is identical on every
// machine — the determinism the enumeration relies on.
const gpuWorkers = 2

// gpuFaultWorkload drives commits and propagations through an engine whose
// device faults according to plan, asserting the propagation invariants at
// every step. A nil plan runs fault-free (the golden run).
func gpuFaultWorkload(replica htap.ReplicaKind, plan *faultinject.GPUPlan) error {
	s := graph.NewStore()
	dev := gpu.DefaultA100()
	if plan != nil {
		dev.SetFaultInjector(plan)
	}
	cfg := htap.Config{
		Replica: replica,
		Device:  dev,
		Workers: gpuWorkers,
		// Tight policy: the enumeration exercises both a transient fault
		// absorbed by the one retry and a persistent fault exhausting it.
		Retry: htap.RetryPolicy{MaxAttempts: 2, Backoff: 50 * time.Microsecond, MaxBackoff: 100 * time.Microsecond},
	}

	// Seed data before the engine exists, covered by the initial build.
	ids := make([]graph.NodeID, 0, 8)
	if err := commitTx(s, func(tx *graph.Tx) error {
		for i := 0; i < 6; i++ {
			id, err := tx.AddNode("Person", nil)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		for i := 0; i < 5; i++ {
			if _, err := tx.AddRel(ids[i], ids[i+1], "knows", float64(i+1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	e, err := htap.NewEngine(s, cfg)
	if err != nil {
		// The initial replica upload faulted: nothing started, nothing to
		// lose. Only the injected fault is an acceptable cause.
		if errors.Is(err, faultinject.ErrGPUInjected) {
			return nil
		}
		return fmt.Errorf("engine start: %w", err)
	}

	// Update rounds: each commits topology changes then propagates,
	// checking the failure-atomicity invariant on every failed cycle.
	rounds := []func(tx *graph.Tx) error{
		func(tx *graph.Tx) error { // edge inserts
			if _, err := tx.AddRel(ids[5], ids[0], "knows", 6); err != nil {
				return err
			}
			_, err := tx.AddRel(ids[0], ids[2], "likes", 0.5)
			return err
		},
		func(tx *graph.Tx) error { // edge delete + node insert with edges
			if err := tx.DeleteRel(0); err != nil {
				return err
			}
			id, err := tx.AddNode("City", nil)
			if err != nil {
				return err
			}
			ids = append(ids, id)
			_, err = tx.AddRel(id, ids[1], "in", 1)
			return err
		},
		func(tx *graph.Tx) error { // node delete (drops its out-edges)
			return tx.DeleteNode(ids[3])
		},
		func(tx *graph.Tx) error { // re-wire around the deleted node
			if _, err := tx.AddRel(ids[2], ids[4], "knows", 2); err != nil {
				return err
			}
			_, err := tx.AddRel(ids[6], ids[5], "in", 3)
			return err
		},
	}
	for i, round := range rounds {
		if err := commitTx(s, round); err != nil {
			return fmt.Errorf("round %d commit: %w", i, err)
		}
		if err := propagateChecked(e, fmt.Sprintf("round %d", i)); err != nil {
			return err
		}
	}

	// Heal the device and require convergence: one clean cycle must make
	// the engine fresh again and recover it to Healthy.
	if plan != nil {
		plan.Heal()
	}
	if _, err := e.Propagate(); err != nil {
		return fmt.Errorf("healed propagate failed: %w", err)
	}
	if !e.Fresh() {
		return errors.New("engine stale after healed propagation")
	}
	if h, herr := e.Health(); h != htap.Healthy {
		return fmt.Errorf("health %v (%v) after healed propagation", h, herr)
	}
	if st := e.Staleness(); !st.Fresh() {
		return fmt.Errorf("non-zero staleness %+v after healed propagation", st)
	}

	// The decisive check: the replica must be exactly the main graph at its
	// own watermark — every committed update present, none lost to a fault.
	sr, err := e.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if sr.Diverged {
		return errors.New("replica diverged from main graph after faults (committed update lost)")
	}

	// A healthy analytics run closes the workload (and puts kernel
	// launches in every golden run's operation counts).
	res, err := e.RunAnalytics(htap.BFS, 0)
	if err != nil {
		return fmt.Errorf("healed analytics: %w", err)
	}
	if res.Degraded {
		return errors.New("healed analytics still marked degraded")
	}
	return nil
}

// propagateChecked runs one cycle and asserts the per-cycle invariants.
func propagateChecked(e *htap.Engine, step string) error {
	pendingBefore := pendingNow(e)
	rep, err := e.Propagate()
	if err == nil {
		if h, herr := e.Health(); h != htap.Healthy {
			return fmt.Errorf("%s: successful cycle left health %v (%v)", step, h, herr)
		}
		return nil
	}
	if !errors.Is(err, faultinject.ErrGPUInjected) {
		return fmt.Errorf("%s: propagate failed outside the injected fault: %w", step, err)
	}
	if h, _ := e.Health(); h != htap.Degraded {
		return fmt.Errorf("%s: failed cycle left health %v", step, h)
	}
	// Failure atomicity: the failed cycle must have consumed nothing.
	if after := pendingNow(e); after < pendingBefore {
		return fmt.Errorf("%s: failed cycle consumed records (%d pending before, %d after)", step, pendingBefore, after)
	}
	if rep == nil {
		return fmt.Errorf("%s: failed cycle returned no report", step)
	}
	if rep.Staleness.Fresh() && pendingBefore > 0 {
		return fmt.Errorf("%s: degraded report claims fresh with %d pending records", step, pendingBefore)
	}
	// Degraded availability: analytics still answer from the last-good
	// replica — unless the analytics kernel launch itself faults, which
	// must surface as the injected error, never as a wrong answer.
	res, aerr := e.RunAnalytics(htap.BFS, 0)
	if aerr != nil {
		if !errors.Is(aerr, faultinject.ErrGPUInjected) {
			return fmt.Errorf("%s: degraded analytics failed outside the injected fault: %w", step, aerr)
		}
		return nil
	}
	if !res.Degraded {
		return fmt.Errorf("%s: analytics under failing propagation not marked degraded", step)
	}
	if res.Staleness.Fresh() && pendingBefore > 0 {
		return fmt.Errorf("%s: degraded result claims fresh with %d pending records", step, pendingBefore)
	}
	return nil
}

// commitTx runs one transaction, aborting on error.
func commitTx(s *graph.Store, fn func(tx *graph.Tx) error) error {
	tx := s.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// pendingNow counts unconsumed delta records from finished transactions.
func pendingNow(e *htap.Engine) int {
	last := e.Store().Oracle().LastCommitted()
	return e.DeltaStore().PendingCount(mvto.TS(last) + 1)
}

// GPUGoldenRun replays the workload fault-free on a counting plan,
// returning the per-operation occurrence counts that bound the enumeration.
func GPUGoldenRun(replica htap.ReplicaKind) (map[string]int64, error) {
	plan := faultinject.NewGPUPlan()
	if err := gpuFaultWorkload(replica, plan); err != nil {
		return nil, err
	}
	return plan.Counts(), nil
}

// RunGPUFaultPoint injects one fault — the nth occurrence of op, transient
// or persistent — into the workload and checks every invariant.
func RunGPUFaultPoint(replica htap.ReplicaKind, op string, n int64, kind faultinject.GPUFaultKind) GPUFaultResult {
	plan := faultinject.NewGPUPlan()
	plan.Arm(op, n, kind)
	res := GPUFaultResult{Replica: replica, Op: op, N: n, Kind: kind}
	res.Err = gpuFaultWorkload(replica, plan)
	res.Injected = plan.Injected()
	return res
}

// EnumerateGPUFaults runs the workload once per (replica kind, operation,
// occurrence, fault kind) combination, sampling at most maxPerOp
// occurrences per operation (0 = all).
func EnumerateGPUFaults(maxPerOp int) (*GPUFaultReport, error) {
	rep := &GPUFaultReport{PerOp: map[string]int64{}}
	for _, replica := range []htap.ReplicaKind{htap.StaticCSR, htap.DynamicHash} {
		counts, err := GPUGoldenRun(replica)
		if err != nil {
			return nil, fmt.Errorf("golden run (%v): %w", replica, err)
		}
		for op, c := range counts {
			rep.PerOp[op] += c
		}
		for _, op := range faultinject.GPUOps {
			for _, n := range samplePoints(counts[op], maxPerOp) {
				for _, kind := range []faultinject.GPUFaultKind{faultinject.Transient, faultinject.Persistent} {
					r := RunGPUFaultPoint(replica, op, n, kind)
					rep.Results = append(rep.Results, r)
					if r.Err != nil {
						rep.Failures++
					}
				}
			}
		}
	}
	return rep, nil
}
