package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Observer bundles the three observability substrates — metrics registry,
// cycle tracer, drift tracker — plus the pre-resolved instruments the hot
// paths hit. Every method is nil-receiver-safe: a nil *Observer is the
// zero-config no-op, so instrumented code calls unconditionally and pays
// one nil check when observability is off.
type Observer struct {
	Reg      *Registry
	Tracer   *Tracer
	Requests *ReqTracer
	Drift    *Drift

	commitHist *Histogram

	deltaAppends *Counter
	deltaRecords *Counter
	deltaIns     *Counter
	deltaDels    *Counter

	phaseMu sync.RWMutex
	phase   map[string]*Histogram
	total   *Histogram

	cyclesOK       *Counter
	cyclesDegraded *Counter
	rebuildsCost   *Counter
	rebuildsFall   *Counter
	recsConsumed   *Counter
	deltasCombined *Counter
	attempts       *Counter
	retries        *Counter

	healthToDegraded *Counter
	healthToHealthy  *Counter

	healthMu  sync.RWMutex
	healthSrc func() (ok bool, detail string)
}

// Phase names pre-registered in the propagation phase histogram family, so
// every family appears in the exposition from the first scrape.
var phaseNames = []string{"scan", "merge", "rebuild", "transfer", "ingest", "retry"}

// New returns an Observer with a fresh registry, a 64-cycle tracer and a
// 128-observation drift window, with every static metric family
// pre-registered (families are visible from the first scrape even at zero).
func New() *Observer {
	o := &Observer{
		Reg:      NewRegistry(),
		Tracer:   NewTracer(64),
		Requests: NewReqTracer(64, 32),
		Drift:    NewDrift(128),
		phase:    make(map[string]*Histogram),
	}
	r := o.Reg

	// Process identity and runtime health: who is this binary and is its
	// runtime sane, answerable from /metrics alone.
	r.Gauge("h2tap_build_info",
		"Build identity; always 1, with the version carried in labels.",
		L("version", buildVersion()), L("go_version", runtime.Version())).Set(1)
	started := time.Now()
	r.GaugeFunc("h2tap_uptime_seconds",
		"Seconds since this observer (process, in practice) was created.",
		func() float64 { return time.Since(started).Seconds() })
	r.GaugeFunc("h2tap_goroutines",
		"Live goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	o.commitHist = r.Histogram("h2tap_commit_seconds",
		"MVTO transaction commit latency (commit hooks + oracle publication).", nil)

	o.deltaAppends = r.Counter("h2tap_delta_appends_total",
		"Committed transactions whose topology deltas were appended to DELTA_FE.")
	o.deltaRecords = r.Counter("h2tap_delta_append_records_total",
		"Delta records appended to DELTA_FE.")
	o.deltaIns = r.Counter("h2tap_delta_append_inserts_total",
		"Inserted-edge payload elements appended to DELTA_FE.")
	o.deltaDels = r.Counter("h2tap_delta_append_deletes_total",
		"Deleted-edge payload elements appended to DELTA_FE.")

	for _, p := range phaseNames {
		o.phase[p] = r.Histogram("h2tap_propagation_phase_seconds",
			"Per-phase wall (scan/merge/rebuild/retry) or simulated (transfer/ingest) time of propagation cycles.",
			nil, L("phase", p))
	}
	o.total = r.Histogram("h2tap_propagation_total_seconds",
		"Critical-path total (wall + simulated) of propagation cycles.", nil)

	o.cyclesOK = r.Counter("h2tap_propagation_cycles_total",
		"Completed propagation cycles by outcome.", L("result", "ok"))
	o.cyclesDegraded = r.Counter("h2tap_propagation_cycles_total",
		"Completed propagation cycles by outcome.", L("result", "degraded"))
	o.rebuildsCost = r.Counter("h2tap_propagation_rebuilds_total",
		"Propagation cycles that rebuilt the CSR instead of merging, by cause.", L("cause", "cost-model"))
	o.rebuildsFall = r.Counter("h2tap_propagation_rebuilds_total",
		"Propagation cycles that rebuilt the CSR instead of merging, by cause.", L("cause", "fallback"))
	o.recsConsumed = r.Counter("h2tap_propagation_records_total",
		"Delta records consumed by propagation cycles.")
	o.deltasCombined = r.Counter("h2tap_propagation_deltas_total",
		"Combined per-node deltas applied by propagation cycles.")
	o.attempts = r.Counter("h2tap_propagation_attempts_total",
		"Replica-apply attempts across all cycles and escalation rungs.")
	o.retries = r.Counter("h2tap_propagation_retries_total",
		"Failed replica-apply attempts that were retried or escalated.")

	o.healthToDegraded = r.Counter("h2tap_health_transitions_total",
		"Engine health-state transitions.", L("to", "degraded"))
	o.healthToHealthy = r.Counter("h2tap_health_transitions_total",
		"Engine health-state transitions.", L("to", "healthy"))

	for _, m := range DriftModels {
		m := m
		r.GaugeFunc("h2tap_costmodel_rel_error",
			"Rolling mean relative error |predicted-actual|/actual of the cost model component.",
			func() float64 { return o.Drift.RelErr(m) }, L("model", m))
		r.CounterFunc("h2tap_costmodel_predictions_total",
			"Predicted-vs-actual observations recorded per cost model component.",
			func() float64 { return float64(o.Drift.Count(m)) }, L("model", m))
	}
	return o
}

// buildVersion reports the main module version baked into the binary, or
// "devel" when built from a working tree.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "devel"
}

// StartRequest opens a request trace (nil-safe; may return nil when
// sampled out).
func (o *Observer) StartRequest(name string) *Req {
	if o == nil {
		return nil
	}
	return o.Requests.Start(name)
}

// ObserveCommit records one MVTO commit latency.
func (o *Observer) ObserveCommit(d time.Duration) {
	if o == nil {
		return
	}
	o.commitHist.ObserveDuration(d)
}

// DeltaAppend records one delta-store Capture: records appended plus
// insert/delete payload elements.
func (o *Observer) DeltaAppend(records, ins, dels int) {
	if o == nil {
		return
	}
	o.deltaAppends.Inc()
	o.deltaRecords.Add(uint64(records))
	o.deltaIns.Add(uint64(ins))
	o.deltaDels.Add(uint64(dels))
}

// StartCycle opens a propagation cycle trace (nil-safe, may return nil).
func (o *Observer) StartCycle(name string) *Cycle {
	if o == nil {
		return nil
	}
	return o.Tracer.StartCycle(name)
}

// ObservePhase records one phase duration of a propagation cycle.
func (o *Observer) ObservePhase(phase string, d time.Duration) {
	if o == nil {
		return
	}
	o.phaseMu.RLock()
	h := o.phase[phase]
	o.phaseMu.RUnlock()
	if h == nil {
		h = o.Reg.Histogram("h2tap_propagation_phase_seconds",
			"Per-phase wall (scan/merge/rebuild/retry) or simulated (transfer/ingest) time of propagation cycles.",
			nil, L("phase", phase))
		o.phaseMu.Lock()
		o.phase[phase] = h
		o.phaseMu.Unlock()
	}
	h.ObserveDuration(d)
}

// CycleStats summarizes one finished propagation cycle for the counters.
type CycleStats struct {
	OK              bool
	Total           time.Duration
	Records, Deltas int
	Attempts        int
	Rebuild         bool
	FallbackRebuild bool
}

// ObserveCycleDone records the cycle-level counters and the total
// histogram.
func (o *Observer) ObserveCycleDone(s CycleStats) {
	if o == nil {
		return
	}
	if s.OK {
		o.cyclesOK.Inc()
	} else {
		o.cyclesDegraded.Inc()
	}
	o.total.ObserveDuration(s.Total)
	o.recsConsumed.Add(uint64(s.Records))
	o.deltasCombined.Add(uint64(s.Deltas))
	o.attempts.Add(uint64(s.Attempts))
	if s.Attempts > 1 {
		o.retries.Add(uint64(s.Attempts - 1))
	}
	if s.Rebuild {
		if s.FallbackRebuild {
			o.rebuildsFall.Inc()
		} else {
			o.rebuildsCost.Inc()
		}
	}
}

// HealthTransition records an engine health-state change.
func (o *Observer) HealthTransition(degraded bool) {
	if o == nil {
		return
	}
	if degraded {
		o.healthToDegraded.Inc()
	} else {
		o.healthToHealthy.Inc()
	}
}

// RecordDrift adds one predicted-vs-actual observation (seconds) for a
// cost-model component.
func (o *Observer) RecordDrift(model string, predicted, actual float64) {
	if o == nil {
		return
	}
	o.Drift.Record(model, predicted, actual)
}

// SetHealthSource wires /healthz to the engine's availability state. The
// last registration wins, matching the gauge semantics when an engine is
// recreated over the same observer.
func (o *Observer) SetHealthSource(fn func() (ok bool, detail string)) {
	if o == nil {
		return
	}
	o.healthMu.Lock()
	o.healthSrc = fn
	o.healthMu.Unlock()
}

// Health evaluates the registered health source; with none registered the
// observer is trivially healthy.
func (o *Observer) Health() (bool, string) {
	if o == nil {
		return true, "no observer"
	}
	o.healthMu.RLock()
	fn := o.healthSrc
	o.healthMu.RUnlock()
	if fn == nil {
		return true, "no engine"
	}
	return fn()
}
