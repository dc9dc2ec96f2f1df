// Engine health: the failure-atomic propagation protocol's escalation
// ladder ends in an explicit availability state. A propagation cycle that
// exhausts its retries and its rebuild fallback leaves the engine
// Degraded: analytics keep running on the last-good replica — whose
// consistency the staged delta consumption guarantees (§6.3's committed
// prefix) — with an explicit staleness bound, until a later cycle
// succeeds and the engine recovers to Healthy.
package htap

import (
	"time"

	"h2tap/internal/csr"
	"h2tap/internal/mvto"
	"h2tap/internal/obs"
)

// Health is the engine's availability state.
type Health int

const (
	// Healthy: the last propagation cycle (if any) succeeded; the replica
	// tracks the committed prefix the freshness protocol promises.
	Healthy Health = iota
	// Degraded: the last cycle failed through every rung of the retry
	// ladder. The replica still serves its last-good version; results
	// carry a staleness bound. The engine recovers on the next successful
	// cycle (every stale analytics request attempts one).
	Degraded
)

// String names the health state.
func (h Health) String() string {
	if h == Degraded {
		return "degraded"
	}
	return "healthy"
}

// Staleness bounds how far the replica lags the main graph: the freshness
// watermark against the newest commit, and the count of captured delta
// records a propagation has yet to apply. A fresh replica reports zero for
// both.
type Staleness struct {
	// ReplicaTS is the freshness watermark: the replica reflects every
	// transaction with a timestamp below it.
	ReplicaTS mvto.TS
	// LastCommitted is the newest committed transaction timestamp.
	LastCommitted mvto.TS
	// TSLag is the number of commit timestamps in [ReplicaTS,
	// LastCommitted] — an upper bound on the commits the replica may be
	// missing (property-only commits inflate it; PendingRecords is the
	// exact topology-record count).
	TSLag uint64
	// PendingRecords counts captured, still-unconsumed delta records from
	// finished transactions.
	PendingRecords int
}

// Fresh reports a zero staleness bound.
func (s Staleness) Fresh() bool { return s.TSLag == 0 && s.PendingRecords == 0 }

// RetryPolicy bounds the replica-apply attempts of one escalation rung of
// a propagation cycle (delta apply, then rebuild fallback). Transient
// device faults are absorbed by backoff-spaced retries; a fault that
// outlives both rungs degrades the engine.
type RetryPolicy struct {
	// MaxAttempts per rung (default 3).
	MaxAttempts int
	// Backoff before the first retry, doubling per retry (default 1ms).
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 50ms).
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 50 * time.Millisecond
	}
	return p
}

// Health reports the engine's availability state and, when Degraded, the
// fault that caused it.
func (e *Engine) Health() (Health, error) {
	e.healthMu.RLock()
	defer e.healthMu.RUnlock()
	return e.health, e.lastFault
}

// setHealth records a cycle outcome, counting actual state transitions.
func (e *Engine) setHealth(h Health, err error) {
	e.healthMu.Lock()
	changed := e.health != h
	e.health = h
	if h == Healthy {
		err = nil
	}
	e.lastFault = err
	e.healthMu.Unlock()
	if changed {
		e.cfg.Obs.HealthTransition(h == Degraded)
	}
}

// Staleness reports the current staleness bound. Healthy engines report a
// (near-)zero bound; in Degraded mode this is the guarantee attached to
// every analytics result.
func (e *Engine) Staleness() Staleness {
	last := e.store.Oracle().LastCommitted()
	rts := e.ReplicaTS()
	st := Staleness{ReplicaTS: rts, LastCommitted: last}
	// Agree with the §4.3 freshness check: commits above the watermark that
	// captured no topology deltas (property-only transactions, propagation
	// transactions themselves) don't stale the replica, so the bound is
	// zero exactly when Fresh() holds.
	if e.Fresh() {
		return st
	}
	if last >= rts {
		st.TSLag = uint64(last - rts + 1)
	}
	if e.ds.DeltaMode() {
		st.PendingRecords = e.ds.PendingCount(last + 1)
	}
	return st
}

// Backpressure reports whether committers should be throttled: the engine
// is Degraded (retries are failing, so propagation cannot drain the store)
// and the delta store has grown past its high-water mark. The h2tap facade
// turns this into failed commits so a wedged device cannot hide unbounded
// delta-store growth.
func (e *Engine) Backpressure() bool {
	h, _ := e.Health()
	return h == Degraded && e.ds.OverHighWater()
}

// Retries reports the total failed replica-apply attempts that were
// retried or escalated.
func (e *Engine) Retries() int64 {
	e.propMu.Lock()
	defer e.propMu.Unlock()
	return e.retries
}

// FallbackRebuilds reports propagation cycles whose delta apply gave up
// and fell back to a full rebuild.
func (e *Engine) FallbackRebuilds() int64 {
	e.propMu.Lock()
	defer e.propMu.Unlock()
	return e.fallbackRebuilds
}

// DegradedCycles reports propagation cycles that failed outright (both
// rungs exhausted).
func (e *Engine) DegradedCycles() int64 {
	e.propMu.Lock()
	defer e.propMu.Unlock()
	return e.degradedCycles
}

// emergencyPropagate is the delta-store high-water hook. It runs on the
// committing goroutine, so it only kicks off an asynchronous propagation
// (at most one in flight); if that fails, the engine degrades and
// Backpressure takes over.
func (e *Engine) emergencyPropagate() {
	if !e.emergency.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.emergency.Store(false)
		_, _ = e.Propagate()
	}()
}

// retryLoop drives one rung of the escalation ladder: attempt() until it
// succeeds or the policy's attempts are exhausted, with exponential
// backoff between tries. Failed attempts are real cost — their wall time
// and the backoff sleeps are charged to the report (RetryWall and Total),
// so retry accounting stays honest. Runs under propMu.
func (e *Engine) retryLoop(rep *PropagationReport, tc *obs.Cycle, rung string, attempt func(n int) error) error {
	pol := e.cfg.Retry.withDefaults()
	backoff := pol.Backoff
	for n := 1; ; n++ {
		rep.Attempts++
		sp := tc.Span(rung)
		sp.Arg("attempt", itoa(n))
		start := time.Now()
		err := attempt(n)
		if err == nil {
			sp.End()
			return nil
		}
		sp.Arg("err", err.Error())
		sp.End()
		wasted := time.Since(start)
		rep.RetryWall += wasted
		rep.Total.AddWall(wasted)
		e.retries++
		if n >= pol.MaxAttempts {
			return err
		}
		bs := tc.Span("backoff")
		time.Sleep(backoff)
		bs.End()
		rep.RetryWall += backoff
		rep.Total.AddWall(backoff)
		if backoff *= 2; backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
	}
}

// ScrubReport is the outcome of one replica integrity scrub.
type ScrubReport struct {
	// TS is the main-graph snapshot the replica was checked against (the
	// replica's freshness watermark minus one).
	TS mvto.TS
	// Diverged reports that the replica did not match the snapshot.
	Diverged bool
	// Rebuilt reports that a forced rebuild repaired the divergence.
	Rebuilt bool
	// Wall is the scrub's host time (snapshot build + diff + repair).
	Wall time.Duration
}

// Scrub is the on-demand replica integrity check: it rebuilds a main-graph
// snapshot at the replica's own freshness watermark, diffs it against the
// replica content (host CSR or dynamic structure), and — on divergence —
// forces a full rebuild at the current stable timestamp. A clean scrub of
// a Degraded engine confirms the last-good replica is exactly the
// committed prefix it claims to be.
func (e *Engine) Scrub() (*ScrubReport, error) {
	e.propMu.Lock()
	defer e.propMu.Unlock()
	start := time.Now()

	e.replicaMu.RLock()
	ts := e.replicaTS - 1
	var have *csr.CSR
	switch e.cfg.Replica {
	case StaticCSR:
		have = e.staticRep.Segmented().ToCSR()
	case DynamicHash:
		have = e.dynRep.Graph().ToCSR()
	}
	e.replicaMu.RUnlock()

	rep := &ScrubReport{TS: ts}
	want := csr.BuildWorkers(e.store, ts, e.workers())
	if !scrubEqual(have, want) {
		rep.Diverged = true
		// Repair: a full rebuild at the current stable bound, inside a
		// propagation transaction like any cycle.
		tp := e.store.Oracle().Begin()
		defer tp.Commit()
		bound := e.store.Oracle().StableTS() + 1
		prep := &PropagationReport{Triggered: true, TS: bound, Workers: e.workers()}
		if err := e.rebuildReplica(bound, prep, nil); err != nil {
			e.setHealth(Degraded, err)
			rep.Wall = time.Since(start)
			return rep, err
		}
		e.setHealth(Healthy, nil)
		rep.Rebuilt = true
	}
	rep.Wall = time.Since(start)
	return rep, nil
}

// scrubEqual compares the replica content against a freshly built
// main-graph CSR. The fresh build sizes its offset table from the *current*
// node-slot count, so nodes committed after the replica's watermark
// contribute empty rows the replica cannot have yet: extra trailing slots
// in want are fine as long as they are empty; every common row must match
// exactly.
func scrubEqual(have, want *csr.CSR) bool {
	if have.NumNodes() > want.NumNodes() {
		return false
	}
	for u := 0; u < have.NumNodes(); u++ {
		hc, hv := have.Row(uint64(u))
		wc, wv := want.Row(uint64(u))
		if len(hc) != len(wc) {
			return false
		}
		for i := range hc {
			if hc[i] != wc[i] || hv[i] != wv[i] {
				return false
			}
		}
	}
	for u := have.NumNodes(); u < want.NumNodes(); u++ {
		if wc, _ := want.Row(uint64(u)); len(wc) != 0 {
			return false
		}
	}
	return true
}
