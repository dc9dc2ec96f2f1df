package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// A percentile is supported only with ten samples beyond it.
func TestPercentileTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		p, want float64
		ok      bool
	}{
		{200, 95, 190, true},  // ten beyond the 190th
		{199, 95, 190, false}, // nine beyond
		{21, 50, 11, true},
		{19, 50, 10, false},
		{1000, 99, 990, true},
		{999, 99, 990, false},
		{5, 95, 5, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("empty series supported a percentile")
	}
}

// tailPercentile falls back to the highest percentile that is supported.
func TestTailPercentileFallsBack(t *testing.T) {
	if v, p := tailPercentile(seq(400), 95); v != 380 || p != 95 {
		t.Errorf("400 samples: got value %v at p%v, want 380 at p95", v, p)
	}
	// 30 samples: ten beyond leaves the 20th, which is p66.
	v, p := tailPercentile(seq(30), 95)
	if v != 20 || math.Abs(p-66.7) > 0.1 {
		t.Errorf("30 samples: got value %v at p%.1f, want 20 at p66.7", v, p)
	}
	if v, _ := tailPercentile(seq(8), 95); v != 8 {
		t.Errorf("8 samples: got %v, want the maximum", v)
	}
}

func TestSpreadMatchesQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	if got, want := spread(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Three values: the quartiles are the extremes.
	if got, want := spread(seq(3)), (3.0-1.0)/2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want their range over the median, %v", got, want)
	}
	if spread(seq(1)) != 0 {
		t.Error("a single value has no spread")
	}
}

func TestFreshnessPairsAckWithCoveringCall(t *testing.T) {
	calls := []anaRec{
		{start: 100, end: 200, watermark: 10},
		{start: 210, end: 300, watermark: 20},
		{start: 310, end: 400, watermark: 30},
	}
	acks := []ackRec{
		{at: 50, ts: 5},   // covered by the first call: 200-50
		{at: 150, ts: 9},  // acked while call 1 ran, but its watermark covers ts 9: 200-150
		{at: 150, ts: 15}, // not covered by call 1 (watermark 10): call 2: 300-150
		{at: 250},         // no timestamp: first call issued after the ack: call 3: 400-250
		{at: 390, ts: 99}, // nothing covers it: no reading
	}
	got := freshness(acks, calls)
	want := []float64{150, 50, 150, 150}
	if len(got.v) != len(want) {
		t.Fatalf("got %d readings %v, want %v", len(got.v), got.v, want)
	}
	for i := range want {
		if got.v[i] != want[i] {
			t.Errorf("reading %d = %v, want %v", i, got.v[i], want[i])
		}
	}
}

// A metric is taken over each whole window and a pass reports the median of
// its windows; a series too sparse for that is pooled; where even the pool
// does not support the percentile the value is flagged.
func TestPctMetricWindowsThenPoolThenStandIn(t *testing.T) {
	ws := []window{{0, 999}, {1000, 1999}, {2000, 2999}}
	dense := newSamples(0)
	for k, level := range []float64{10, 20, 90} { // the third window was disturbed
		for i := 0; i < 100; i++ {
			dense.add(int64(k*1000+i*10), level)
		}
	}
	m := pctMetric(ws, dense, 50, 1, "ns")
	if m.Value != 20 || !m.Supported || m.N != 300 {
		t.Errorf("dense series: %+v, want the median window's 20 over 300 samples", m)
	}
	if r := rateMetric(ws, dense, "1/s"); math.Abs(r.Value-100/999e-9) > 1 {
		t.Errorf("rate = %v, want 100 events over each 999 ns window", r.Value)
	}

	sparse := newSamples(0) // 15 samples a window: no window supports a median, the pool of 45 does
	for i := 0; i < 45; i++ {
		sparse.add(int64(i*66), float64(i+1))
	}
	if m := pctMetric(ws, sparse, 50, 1, "ns"); m.Value != 23 || !m.Supported {
		t.Errorf("sparse series: %+v, want the pooled median 23", m)
	}
	if m := pctMetric(ws, sparse, 95, 1, "ns"); m.Supported || m.Value != 35 || math.Abs(m.Pct-100*35.0/45) > 1e-9 {
		t.Errorf("unsupported tail: %+v, want the 35th of 45 flagged as a stand-in", m)
	}
	outside := newSamples(0)
	outside.add(5000, 1)
	if m := pctMetric(ws, outside, 50, 1, "ns"); m.N != 0 || m.Supported {
		t.Errorf("samples outside every window must not count: %+v", m)
	}
}
