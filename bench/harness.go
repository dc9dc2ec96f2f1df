package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"h2tap"
)

// All harness times are nanoseconds since epoch on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

const (
	clients   = 2 // closed-loop client goroutines / connections: nproc on the sizing box
	slicesPer = 5 // slices a window is cut into for the noise estimate
)

// runCtx is one pass of one workload: the sizing inputs, the accumulator the
// sets fill, and the correctness ledger.
type runCtx struct {
	wl string
	layers
	seed    int64
	seconds float64
	// scale multiplies every op count and open-loop duration: 1 when
	// measuring, a fiftieth in the smoke test.
	scale float64
	// sets is how many sets, each on a fresh database, the plain pass deals
	// its work to. The traced pass runs one of them.
	sets    int
	trace   bool
	workDir string

	acc

	// Traced pass: the op stream the commit-path probes replay (client 0's
	// script), the probe readings, and the cross-shard commits the shard
	// probe added to the ledger.
	probeScript []op
	probed      probes
	probeAcked  []shardTx

	mu        sync.Mutex
	notes     []string // correctness violations and failure causes; any makes the run incorrect
	scanRaces int      // analytics calls repeated after the engine's reserve-vs-scan panic
}

// n is one set's share of a per-second op budget (at least min).
func (c *runCtx) n(perSecond float64, min int) int {
	v := int(math.Round(perSecond * c.seconds * c.scale / float64(c.sets)))
	if v < min {
		v = min
	}
	return v
}

// runSets is how many sets this pass runs.
func (c *runCtx) runSets() int {
	if c.trace {
		return 1
	}
	return c.sets
}

// violate records a correctness failure: it counts as a failed op and makes
// the run incorrect.
func (c *runCtx) violate(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
	c.failed++
}

func (c *runCtx) must(err error, what string) {
	if err != nil {
		panic(fmt.Sprintf("%s: %s: %v", c.wl, what, err))
	}
}

// window is one set's measured interval.
type window struct{ start, end int64 }

// samples is a timed series: v[i] completed at at[i].
type samples struct {
	at []int64
	v  []float64
}

func newSamples(capacity int) *samples {
	return &samples{at: make([]int64, 0, capacity), v: make([]float64, 0, capacity)}
}

func (s *samples) add(at int64, v float64) {
	s.at = append(s.at, at)
	s.v = append(s.v, v)
}

func (s *samples) merge(o *samples) {
	s.at = append(s.at, o.at...)
	s.v = append(s.v, o.v...)
}

// anaRec is one analytics call: when it was issued, when it returned, and
// the replica watermark it ran at (0 when the API does not expose one; then
// a call covers exactly the commits acked before it was issued).
type anaRec struct {
	start, end int64
	watermark  uint64
}

// ackRec is one sampled commit ack for the freshness metric.
type ackRec struct {
	at int64
	ts uint64 // 0 when unknown
}

// txTrace is the traced pass's per-commit record: the four boundaries of the
// three public calls a transaction makes (Begin | ops | Commit). Spans are
// materialised from it after the window, so the hot loop pays two extra
// clock reads and no allocation.
type txTrace struct {
	t0, t1, t2, t3 int64
	ops            int32
	client         int32
}

type setupTimes struct{ generate, load, engine, server float64 } // seconds

func (s setupTimes) total() float64 { return s.generate + s.load + s.engine + s.server }

// acc is everything the sets of one pass accumulate.
type acc struct {
	windows []window
	setWin  []window // one per set: the whole measured part, analytics between bursts included
	setups  []setupTimes
	recover []float64 // seconds per set
	heap    []float64 // live bytes attributable to the DB per set

	commit    samples  // commit latency, ns
	crossShrd samples  // shard-2pc: the cross-shard subset of commit
	singleShd samples  // shard-2pc: the single-shard subset
	lag       samples  // open loop: send − due, ns
	read      samples  // read-only tx latency, ns
	analytics samples  // analytics call latency, ns
	fresh     samples  // commit ack → covering analytics return, ns
	anaLog    []anaRec // this set's calls and
	acks      []ackRec // sampled acks; folded into fresh by endSet
	calls     []anaRec // every set's calls, for the trace file

	attempted, failed int64
	committed         int64 // update transactions that committed inside a window
	skipped           int64 // ops with nothing to do (duplicate edge, bare node)
	attempts, retries int64 // MVTO attempts and the retried share
	readEdges         int64
	readNanos         int64
	heapGrowth        float64 // bytes the window itself added, summed over sets
	participants      int64   // shard-2pc: Σ participants over commits
	ghostNodes        int64
	shed              int64 // http: non-2xx admission rejections

	// Traced pass only.
	txs            []txTrace
	tracedNs       []float64 // commit latency of the traced transactions and of
	untracedNs     []float64 // the untraced ones interleaved with them
	cycles         []h2tap.PropagationReport
	results        []resultRec
	fs             fsDelta
	fsSpans        []fsSpan
	h2d            int64   // bytes shipped host→device inside windows
	deltaRecords   int64   // delta records appended inside windows
	bytesPerRecord float64 // delta-store array bytes ÷ records at the end of the window
	stitchMs       []float64
	waitMs         []float64 // http: analytics wait

	replayS     float64 // seconds of the reopen (traced set)
	replayN     int64   // commits replayed
	checkpointS float64
}

// resultRec keeps the few fields of an analytics call the ledger needs: the
// bench-owned span around the call and, from the Result, the kernel and the
// propagation cycle the call triggered.
type resultRec struct {
	wall, hostWall, kernelSim, modeled time.Duration
	propagated                         bool
	scanWall, mergeWall                time.Duration
}

// counters are the cumulative engine counts the traced pass differences
// around a window.
type counters struct {
	records, bytes uint64
	h2d            int64
}

func readCounters(db *h2tap.DB) counters {
	st := db.Stats()
	k := counters{records: st.DeltaRecords, bytes: st.DeltaBytes}
	if e := db.Engine(); e != nil {
		k.h2d = e.Device().Stats().BytesToDevice
	}
	return k
}

// countWindow folds the counter movement of one traced window into the
// accumulator.
func (a *acc) countWindow(before, after counters) {
	a.deltaRecords += int64(after.records - before.records)
	a.h2d += after.h2d - before.h2d
	if after.records > 0 {
		a.bytesPerRecord = float64(after.bytes) / float64(after.records)
	}
}

// liveHeap returns the bytes still allocated after two forced collections.
// One is not enough: the first only moves what sits in a sync.Pool to the
// pool's victim cache and queues finalizers, so its reading depends on
// whether the workload happened to end just after a collection
// (http-durable read 137 MB or 157 MB from set to set).
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// metric is one reported reading.
type metric struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	N         int     `json:"n"`                   // samples behind the value
	Spread    float64 `json:"spread"`              // slice IQR ÷ slice median within this run
	Pct       float64 `json:"pct,omitempty"`       // percentile metrics: the percentile the value stands for
	Supported bool    `json:"supported,omitempty"` // percentiles: ≥ minBeyond samples lie beyond it
}

// sliceOf maps a completion time to its slice index across all windows, each
// cut into slicesPer slices (window k, slice j → k*slicesPer+j), or -1
// outside every window.
func sliceOf(ws []window, at int64) int {
	for k, w := range ws {
		if at >= w.start && at <= w.end {
			return k*slicesPer + int((at-w.start)*slicesPer/(w.end-w.start+1))
		}
	}
	return -1
}

// bySlice deals the samples of s that completed inside ws to their slices.
func bySlice(ws []window, s *samples) [][]float64 {
	b := make([][]float64, len(ws)*slicesPer)
	for i, at := range s.at {
		if k := sliceOf(ws, at); k >= 0 {
			b[k] = append(b[k], s.v[i])
		}
	}
	return b
}

// pctMetric reports the p-th percentile of the samples of s that completed
// inside ws. Each window's percentile is taken over the whole window, and a
// pass with several windows reports their median, as it does for set-up
// time: what disturbs a run on the sizing box disturbs one set of it (the
// first set of a fresh process runs up to twice as slow in the tail; one set
// in ten meets a neighbour), and the pooled tail follows that set. A series
// too sparse for a window to support the percentile (analytics calls: 12 to
// 234 a set) is pooled over the pass instead, and where even the pool does
// not support it the value is flagged and tailPercentile stands in. Beside
// the value goes the spread of the same percentile taken slice by slice.
func pctMetric(ws []window, s *samples, p, div float64, unit string) metric {
	slices := bySlice(ws, s)
	var pooled, perWindow, perSlice []float64
	for k := range ws {
		var win []float64
		for _, b := range slices[k*slicesPer : (k+1)*slicesPer] {
			win = append(win, b...)
			sort.Float64s(b)
			if v, ok := percentile(b, p); ok {
				perSlice = append(perSlice, v)
			}
		}
		pooled = append(pooled, win...)
		sort.Float64s(win)
		if v, ok := percentile(win, p); ok {
			perWindow = append(perWindow, v)
		}
	}
	m := metric{Unit: unit, N: len(pooled), Spread: spread(perSlice), Pct: p, Supported: true}
	if len(perWindow) == len(ws) && len(ws) > 0 {
		m.Value = median(perWindow)
	} else {
		sort.Float64s(pooled)
		if m.Value, m.Supported = percentile(pooled, p); !m.Supported {
			m.Value, m.Pct = tailPercentile(pooled, p)
		}
	}
	m.Value /= div
	return m
}

// rateMetric reports events per second: events completed inside a window
// over the window's length — the median over the windows where a pass has
// several (the bursts of txn-burst, the sets elsewhere) — and the spread of
// the slice rates.
func rateMetric(ws []window, s *samples, unit string) metric {
	var perWindow, perSlice []float64
	n := 0
	for k, b := range bySlice(ws, s) {
		w := ws[k/slicesPer]
		secs := float64(w.end-w.start) / 1e9
		if secs <= 0 {
			continue
		}
		if k%slicesPer == 0 {
			perWindow = append(perWindow, 0)
		}
		perWindow[len(perWindow)-1] += float64(len(b)) / secs
		perSlice = append(perSlice, float64(len(b))*slicesPer/secs)
		n += len(b)
	}
	return metric{Value: median(perWindow), Unit: unit, N: n, Spread: spread(perSlice), Supported: true}
}

// setMetric reports the median of the per-set readings.
func setMetric(xs []float64, div float64, unit string) metric {
	return metric{Value: median(xs) / div, Unit: unit, N: len(xs), Spread: spread(xs), Supported: true}
}

// freshness pairs every sampled commit ack with the first analytics call to
// return whose replica covered it, and returns return − ack in ns. A call
// covers a commit when its watermark exceeds the commit timestamp or, where
// no timestamps are exposed, when it was issued after the ack (analytics
// propagate pending deltas on arrival). Commits acked after the last call
// was issued have no reading.
func freshness(acks []ackRec, log []anaRec) *samples {
	calls := append([]anaRec(nil), log...)
	sort.Slice(calls, func(i, j int) bool { return calls[i].end < calls[j].end })
	// Prefix maxima make "first call by return time that covers x" a binary
	// search even when concurrent calls return out of issue order.
	maxStart := make([]int64, len(calls))
	maxMark := make([]uint64, len(calls))
	for i, c := range calls {
		maxStart[i], maxMark[i] = c.start, c.watermark
		if i > 0 {
			if maxStart[i-1] > maxStart[i] {
				maxStart[i] = maxStart[i-1]
			}
			if maxMark[i-1] > maxMark[i] {
				maxMark[i] = maxMark[i-1]
			}
		}
	}
	out := newSamples(len(acks))
	for _, a := range acks {
		i := sort.Search(len(calls), func(i int) bool {
			return maxStart[i] >= a.at || (a.ts != 0 && maxMark[i] > a.ts)
		})
		if i < len(calls) && calls[i].end > a.at {
			out.add(calls[i].end, float64(calls[i].end-a.at))
		}
	}
	return out
}

// endSet pairs the set's acks with the set's analytics calls. Timestamps
// restart with every fresh database, so the pairing cannot span sets.
func (a *acc) endSet() {
	a.fresh.merge(freshness(a.acks, a.anaLog))
	a.calls = append(a.calls, a.anaLog...)
	a.acks, a.anaLog = a.acks[:0], a.anaLog[:0]
}

// endToEndMetrics folds the accumulator into the eleven user-visible numbers.
func (c *runCtx) endToEndMetrics() map[string]metric {
	a := &c.acc
	setup := make([]float64, len(a.setups))
	for i, s := range a.setups {
		setup[i] = s.total()
	}
	return map[string]metric{
		"setup_s":          setMetric(setup, 1, "s"),
		"commit_per_s":     rateMetric(a.windows, &a.commit, "1/s"),
		"commit_p50_us":    pctMetric(a.windows, &a.commit, 50, 1e3, "us"),
		"commit_p95_us":    pctMetric(a.windows, &a.commit, 95, 1e3, "us"),
		"read_p50_us":      pctMetric(a.setWin, &a.read, 50, 1e3, "us"),
		"analytics_p50_ms": pctMetric(a.setWin, &a.analytics, 50, 1e6, "ms"),
		"analytics_p95_ms": pctMetric(a.setWin, &a.analytics, 95, 1e6, "ms"),
		"freshness_p50_ms": pctMetric(a.setWin, &a.fresh, 50, 1e6, "ms"),
		"freshness_p95_ms": pctMetric(a.setWin, &a.fresh, 95, 1e6, "ms"),
		"recover_s":        setMetric(a.recover, 1, "s"),
		"heap_live_mb":     setMetric(a.heap, 1<<20, "MB"),
	}
}
