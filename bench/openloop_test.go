package main

import (
	"testing"
	"time"
)

// An open loop charges latency from the due time: a stall in one request is
// paid by the requests scheduled behind it, shrinking by one interval each,
// until the generator has caught up.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n        = 60
		interval = time.Millisecond
		stallAt  = 10
		stall    = 20 * time.Millisecond
	)
	lat := make([]time.Duration, n)
	lag := newSamples(n)
	openLoop(n, float64(interval), now(), lag, spinUntil, func(i int, due, _ int64) {
		if i == stallAt {
			time.Sleep(stall)
		}
		lat[i] = time.Duration(now() - due)
	})
	if lat[stallAt-1] > 5*time.Millisecond {
		t.Skipf("box too noisy for a timing assertion: request before the stall took %v", lat[stallAt-1])
	}
	if lat[stallAt] < stall {
		t.Errorf("stalled request charged %v, want at least %v", lat[stallAt], stall)
	}
	// Five slots later about 15 ms of the stall is still owed.
	if got := lat[stallAt+5]; got < 10*time.Millisecond {
		t.Errorf("request 5 slots after the stall charged %v, want it to absorb the backlog (≥ 10ms)", got)
	}
	if !(lat[stallAt+1] > lat[stallAt+8] && lat[stallAt+8] > lat[stallAt+15]) {
		t.Errorf("backlog did not drain monotonically: %v, %v, %v", lat[stallAt+1], lat[stallAt+8], lat[stallAt+15])
	}
	// Long after the backlog (stall ÷ interval slots) the charge is gone.
	if got := lat[n-1]; got > 5*time.Millisecond {
		t.Errorf("last request still charged %v", got)
	}
	// The generator's own lateness is recorded for every request.
	if len(lag.v) != n || time.Duration(lag.v[stallAt+1]) < 10*time.Millisecond {
		t.Errorf("lag series: %d samples, slot after stall %v", len(lag.v), time.Duration(lag.v[stallAt+1]))
	}
}
