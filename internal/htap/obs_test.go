package htap

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"h2tap/internal/costmodel"
	"h2tap/internal/faultinject"
	"h2tap/internal/gpu"
	"h2tap/internal/obs"
)

func exposition(t *testing.T, o *obs.Observer) string {
	t.Helper()
	var b strings.Builder
	o.Reg.WritePrometheus(&b)
	return b.String()
}

// mustContain fails if any want line is absent from the exposition.
func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Fatalf("exposition missing %q:\n%s", w, out)
		}
	}
}

// cheapDeltaModel keeps the §6.4 threshold effectively infinite (delta mode
// always wins) while still marking predictions as model-backed, so drift is
// recorded on clean cycles.
func cheapDeltaModel() *costmodel.Model {
	return &costmodel.Model{
		Scan:    costmodel.Linear{B: 1e-12},
		Modify:  costmodel.Linear{B: 1e-12},
		Copy:    costmodel.Linear{B: 1e-12},
		Rebuild: costmodel.Linear{A: 1000},
	}
}

// TestObsCleanCycle drives one clean delta-propagation cycle with the full
// observability wiring: metric families populated, the cycle traced with
// phase spans, scan/merge/transfer drift recorded, the slow-cycle log and
// OnCycle callback fired, and /healthz-style health reporting fresh.
func TestObsCleanCycle(t *testing.T) {
	o := obs.New()
	var logged []string
	var seen []*PropagationReport
	e, d := newLoadedEngine(t, Config{
		Replica:   StaticCSR,
		CostModel: cheapDeltaModel(),
		Obs:       o,
		SlowCycle: time.Nanosecond, // every cycle is "slow"
		SlowCycleLog: func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		},
		OnCycle: func(rep *PropagationReport) { seen = append(seen, rep) },
	})
	runMixed(t, e, d, 300, 7)
	rep, err := e.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rebuild || rep.Records == 0 {
		t.Fatalf("expected clean delta cycle, got %+v", rep)
	}

	if len(seen) != 1 || seen[0] != rep {
		t.Fatalf("OnCycle fired %d times", len(seen))
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "slow propagation cycle") {
		t.Fatalf("slow-cycle log = %q", logged)
	}

	out := exposition(t, o)
	mustContain(t, out,
		`h2tap_propagation_cycles_total{result="ok"} 1`,
		`h2tap_propagation_cycles_total{result="degraded"} 0`,
		fmt.Sprintf("h2tap_propagation_records_total %d", rep.Records),
		"h2tap_propagation_total_seconds_count 1",
		`h2tap_propagation_phase_seconds_count{phase="scan"} 1`,
		`h2tap_propagation_phase_seconds_count{phase="merge"} 1`,
		`h2tap_propagation_phase_seconds_count{phase="transfer"} 1`,
		"h2tap_health_state 0",
		"h2tap_staleness_pending_records 0",
		"h2tap_delta_depth 0",
		"h2tap_delta_mode 1",
		`h2tap_gpu_ops_total{op="`,
	)
	// Push hooks below the engine fired: commits and delta appends counted.
	if strings.Contains(out, "h2tap_commit_seconds_count 0\n") {
		t.Fatal("no MVTO commits observed")
	}
	if strings.Contains(out, "h2tap_delta_appends_total 0\n") {
		t.Fatal("no delta appends observed")
	}

	// Drift recorded for every model a clean static cycle exercises.
	for _, m := range []string{"scan", "merge", "transfer"} {
		if o.Drift.Count(m) != 1 {
			t.Fatalf("drift %s count = %d, want 1", m, o.Drift.Count(m))
		}
	}
	if o.Drift.Count("rebuild") != 0 {
		t.Fatal("rebuild drift recorded on a delta cycle")
	}

	// The cycle trace carries the phase spans.
	var tr bytes.Buffer
	if err := obs.WriteChromeTrace(&tr, o.Tracer.Cycles(0)); err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{`"propagation"`, `"scan"`, `"merge"`, `"transfer"`} {
		if !strings.Contains(tr.String(), span) {
			t.Fatalf("trace missing %s span:\n%s", span, tr.String())
		}
	}

	if ok, detail := o.Health(); !ok || detail != "replica fresh within bound" {
		t.Fatalf("Health = %v %q", ok, detail)
	}
}

// TestObsRebuildDrift: a cost-model-triggered rebuild records rebuild drift
// at the measurement site and counts under cause="cost-model", without
// polluting the scan/merge series (whose walls a rebuild cycle does not
// cleanly measure).
func TestObsRebuildDrift(t *testing.T) {
	o := obs.New()
	m := &costmodel.Model{
		Scan:    costmodel.Linear{B: 1},
		Modify:  costmodel.Linear{B: 1},
		Rebuild: costmodel.Linear{A: 10}, // threshold = 5 deltas
	}
	e, d := newLoadedEngine(t, Config{Replica: StaticCSR, CostModel: m, Obs: o})
	runMixed(t, e, d, 400, 11)
	rep, err := e.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rebuild {
		t.Fatal("propagation did not rebuild")
	}
	mustContain(t, exposition(t, o),
		`h2tap_propagation_rebuilds_total{cause="cost-model"} 1`,
		`h2tap_propagation_phase_seconds_count{phase="rebuild"} 1`,
	)
	if o.Drift.Count("rebuild") != 1 {
		t.Fatalf("rebuild drift count = %d, want 1", o.Drift.Count("rebuild"))
	}
	if o.Drift.Count("scan") != 0 || o.Drift.Count("merge") != 0 {
		t.Fatal("scan/merge drift recorded on a rebuild cycle")
	}
}

// TestObsDegradedCycle: a persistent device fault walks the escalation
// ladder into Degraded — the observer sees the degraded cycle, the retry
// counters, the health transition and an unhealthy /healthz with backlog
// detail; healing and one clean cycle transition it back.
func TestObsDegradedCycle(t *testing.T) {
	o := obs.New()
	dev := gpu.DefaultA100()
	plan := faultinject.NewGPUPlan()
	dev.SetFaultInjector(plan)
	e, d := newLoadedEngine(t, Config{
		Replica: StaticCSR,
		Device:  dev,
		Obs:     o,
		Retry:   RetryPolicy{MaxAttempts: 2, Backoff: 100 * time.Microsecond, MaxBackoff: 200 * time.Microsecond},
	})
	runMixed(t, e, d, 200, 9)
	for _, op := range []string{faultinject.GPUReplace, faultinject.GPUUpload} {
		plan.Arm(op, 1, faultinject.Persistent)
	}
	if _, err := e.Propagate(); !errors.Is(err, faultinject.ErrGPUInjected) {
		t.Fatalf("propagate err = %v, want injected fault", err)
	}

	mustContain(t, exposition(t, o),
		`h2tap_propagation_cycles_total{result="degraded"} 1`,
		`h2tap_health_transitions_total{to="degraded"} 1`,
		"h2tap_health_state 1",
	)
	if strings.Contains(exposition(t, o), "h2tap_propagation_retries_total 0\n") {
		t.Fatal("no retries counted on the failed cycle")
	}
	if strings.Contains(exposition(t, o), "h2tap_gpu_faults_injected_total 0\n") {
		t.Fatal("injected faults not counted")
	}
	ok, detail := o.Health()
	if ok || !strings.Contains(detail, "pending=") {
		t.Fatalf("degraded Health = %v %q, want backlog detail", ok, detail)
	}

	plan.Heal()
	if _, err := e.Propagate(); err != nil {
		t.Fatal(err)
	}
	mustContain(t, exposition(t, o),
		`h2tap_health_transitions_total{to="healthy"} 1`,
		"h2tap_health_state 0",
	)
	if ok, _ := o.Health(); !ok {
		t.Fatal("health source still degraded after recovery")
	}
}
