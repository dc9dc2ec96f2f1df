package experiments

import (
	"errors"
	"time"

	"h2tap/internal/faultinject"
	"h2tap/internal/gpu"
	"h2tap/internal/htap"
	"h2tap/internal/workload"
)

// faultScenario is one row family of the fault-ladder ablation: which
// device operations fault, how, and whether the device heals at the end.
type faultScenario struct {
	name string
	kind faultinject.GPUFaultKind
	// ops lists the device operations armed before every propagation
	// (transient) or once up front (persistent); empty means fault-free.
	staticOps, dynOps []string
}

// FaultsExp is an extension quantifying the §5e escalation ladder: the
// same update/propagate workload runs fault-free, under a transient fault
// on every replica apply (absorbed by retries), and under a persistent
// device fault (retries exhaust, the rebuild fallback fails too, the
// engine degrades and recovers only after the device heals). Reported per
// scenario: apply attempts, wall time burned by retries, fallback
// rebuilds, degraded cycles, the worst staleness backlog while degraded,
// and whether the post-heal cycle recovered with zero scrub divergence.
func (c Config) FaultsExp() *Table {
	c = c.norm()
	t := &Table{
		ID:    "faults",
		Title: "Propagation under injected GPU faults: retry/fallback/degraded ladder (SF1)",
		Columns: []string{"scenario", "replica", "cycles", "attempts", "retry-wall",
			"fallbacks", "degraded-cycles", "max-pending", "recovered", "scrub-ok"},
	}
	updatesPerCycle := c.queries(20_000)
	const cycles = 3

	scenarios := []faultScenario{
		{name: "clean"},
		{name: "transient", kind: faultinject.Transient,
			staticOps: []string{faultinject.GPUReplace},
			dynOps:    []string{faultinject.GPUIngest}},
		// Persistent faults hit the delta apply AND the rebuild fallback's
		// upload, so every rung fails until the device heals.
		{name: "persistent+heal", kind: faultinject.Persistent,
			staticOps: []string{faultinject.GPUReplace},
			dynOps:    []string{faultinject.GPUIngest, faultinject.GPUUpload}},
	}

	for _, sc := range scenarios {
		for _, replica := range []htap.ReplicaKind{htap.StaticCSR, htap.DynamicHash} {
			ops := sc.staticOps
			if replica == htap.DynamicHash {
				ops = sc.dynOps
			}
			row := c.runFaultScenario(replica, sc, ops, updatesPerCycle, cycles)
			t.AddRow(sc.name, replica, cycles, row.attempts, row.retryWall,
				row.fallbacks, row.degraded, row.maxPending, row.recovered, row.scrubOK)
		}
	}
	t.Note("extension experiment (not in the paper): expected shape — transient faults cost only retry-wall (attempts > cycles, zero degraded cycles); persistent faults degrade every cycle and pile up max-pending until the heal, after which one cycle recovers and the scrub finds zero divergence")
	return t
}

type faultRow struct {
	attempts   int
	retryWall  time.Duration
	fallbacks  int64
	degraded   int64
	maxPending int
	recovered  bool
	scrubOK    bool
}

// runFaultScenario drives one (scenario, replica) cell: cycles of mixed
// updates + propagation with the plan armed, then heal + one clean cycle
// + scrub.
func (c Config) runFaultScenario(replica htap.ReplicaKind, sc faultScenario, ops []string, updates, cycles int) faultRow {
	b := c.setup(1, captNone, false)
	dev := gpu.DefaultA100()
	plan := faultinject.NewGPUPlan()
	dev.SetFaultInjector(plan)
	eng, err := htap.NewEngine(b.store, htap.Config{
		Replica: replica,
		Device:  dev,
		Workers: c.Workers,
		// Tight backoffs keep the ablation fast; the ladder shape is
		// attempt-count-driven, not sleep-driven.
		Retry:   htap.RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond, MaxBackoff: 500 * time.Microsecond},
		Obs:     c.Obs,
		OnCycle: c.OnCycle,
	})
	if err != nil {
		panic(err)
	}
	gen := workload.NewGenerator(b.window(workload.HiDeg, windowFrac), b.ds.Posts, c.Seed)

	arm := func(n int64) {
		for _, op := range ops {
			plan.Arm(op, n, sc.kind)
		}
	}
	if sc.kind == faultinject.Persistent && len(ops) > 0 {
		arm(1)
	}

	var row faultRow
	for cyc := 0; cyc < cycles; cyc++ {
		b.runOps(gen.Mixed(updates))
		if sc.kind == faultinject.Transient && len(ops) > 0 {
			arm(1) // re-arm: fail the first apply of every cycle once
		}
		rep, err := eng.Propagate()
		if err != nil && !errors.Is(err, faultinject.ErrGPUInjected) {
			panic(err)
		}
		row.attempts += rep.Attempts
		row.retryWall += rep.RetryWall
		if p := rep.Staleness.PendingRecords; p > row.maxPending {
			row.maxPending = p
		}
	}
	row.fallbacks = eng.FallbackRebuilds()
	row.degraded = eng.DegradedCycles()

	plan.Heal()
	if _, err := eng.Propagate(); err != nil {
		panic(err)
	}
	h, _ := eng.Health()
	row.recovered = h == htap.Healthy && eng.Fresh()
	sr, err := eng.Scrub()
	if err != nil {
		panic(err)
	}
	row.scrubOK = !sr.Diverged
	return row
}
