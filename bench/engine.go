package main

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"h2tap"
	"h2tap/internal/graph"
	"h2tap/internal/ldbc"
	"h2tap/internal/mvto"
)

// snbSize is an SNB scale factor and the downscale it is divided by.
type snbSize struct {
	sf   float64
	down int
}

var (
	small = snbSize{1, 2}   // SF1÷2: 25 000 nodes / ≈ 209 k edges
	large = snbSize{3, 2}   // SF3÷2: 75 000 nodes / ≈ 638 k edges, CSR ≈ 10 MB
	tiny  = snbSize{0.2, 2} // 5 000 nodes: the smoke test's stand-in for both
)

// smoke reports a pass scaled down to exercise the plumbing, not to measure.
func (c *runCtx) smoke() bool { return c.scale < 0.1 }

// size is the dataset a pass uses where a measured pass uses s.
func (c *runCtx) size(s snbSize) snbSize {
	if c.smoke() {
		return tiny
	}
	return s
}

// poolSize is the persistent-pool capacity a pass uses where a measured pass
// uses n bytes (pools are heap-resident; the smoke test runs six at once).
func (c *runCtx) poolSize(n int64) int64 {
	if c.smoke() {
		return 8 << 20
	}
	return n
}

// snb is a generated SNB-like dataset plus what the op scripts need from it.
type snb struct {
	*ldbc.Dataset
	byDegree []uint64 // Persons, ascending by out-degree (ties by ID)
}

func generateSNB(size snbSize, seed int64) *snb {
	ds := ldbc.GenerateSNB(ldbc.SNBConfig{SF: size.sf, Downscale: size.down, Seed: seed})
	deg := make(map[uint64]int, len(ds.Persons))
	for _, p := range ds.Persons {
		deg[p] = 0
	}
	for i := range ds.Edges {
		if _, ok := deg[ds.Edges[i].Src]; ok {
			deg[ds.Edges[i].Src]++
		}
	}
	by := append([]uint64(nil), ds.Persons...)
	sort.Slice(by, func(i, j int) bool {
		if deg[by[i]] != deg[by[j]] {
			return deg[by[i]] < deg[by[j]]
		}
		return by[i] < by[j]
	})
	return &snb{Dataset: ds, byDegree: by}
}

// hiDeg is the §6.3 HiDeg update window: the top tenth of Persons by degree.
func (d *snb) hiDeg() []uint64 {
	n := len(d.byDegree) / 10
	if n < 2 {
		n = 2
	}
	return d.byDegree[len(d.byDegree)-n:]
}

// zipfPersons draws n Persons Zipf(s=1.1, v=4) by degree rank, hottest first.
// v=4 keeps the hottest Person near a twentieth of the draws: its adjacency
// grows hot, yet most later inserts to it still find a Post it does not like.
func (d *snb) zipfPersons(r *rand.Rand, n int) []uint64 {
	z := rand.NewZipf(r, 1.1, 4, uint64(len(d.byDegree)-1))
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.byDegree[len(d.byDegree)-1-int(z.Uint64())]
	}
	return out
}

// split deals xs round-robin to the clients, so their update windows are
// disjoint and uncontended workloads stay uncontended.
func split(xs []uint64, client int) []uint64 {
	var out []uint64
	for i := client; i < len(xs); i += clients {
		out = append(out, xs[i])
	}
	return out
}

// errNothingToDo marks an op whose precondition did not hold (duplicate
// edge, no edge left to delete, no Person of its own to delete yet): a
// legitimate outcome of the §6.2 operations, counted as skipped, not failed.
var errNothingToDo = errors.New("bench: nothing to do")

// The four §6.2 update operations.
type opKind uint8

const (
	insertRel  opKind = iota // a Person likes a Post
	insertNode               // a new Person with an incoming knows edge
	deleteRel                // one outgoing relationship of a Person
	deleteNode               // a Person with all its edges
)

type op struct {
	kind     opKind
	src, dst uint64
	w        float64
}

// mixedScript pre-generates n operations in the §6.3 mix (66 % insert
// relationship, 22 % insert node, 11 % delete relationship, 1 % delete node)
// with subjects uniform over window. internal/workload's generator is not
// used because its delete-node retires window Persons for good: at 1 % of
// hundreds of thousands of operations the HiDeg window would be empty a
// tenth of the way into a set. Here a delete-node removes a Person the same
// client inserted earlier (resolved at run time), so the window stays the
// HiDeg window for the whole run and every later operation finds its subject.
func mixedScript(r *rand.Rand, window, posts []uint64, n int) []op {
	out := make([]op, n)
	for i := range out {
		o := op{src: window[r.Intn(len(window))], w: 1 + float64(r.Intn(9))}
		switch p := r.Intn(100); {
		case p < 66:
			o.kind, o.dst = insertRel, posts[r.Intn(len(posts))]
		case p < 88:
			o.kind = insertNode
		case p < 99:
			o.kind = deleteRel
		default:
			o.kind = deleteNode
		}
		out[i] = o
	}
	return out
}

// applyOp runs one update operation inside tx and reports how many graph
// operations it made and the node it created, if any.
func (cl *client) applyOp(tx *h2tap.Tx, o *op) (ops int, created uint64, err error) {
	switch o.kind {
	case insertRel:
		_, err = tx.AddRel(o.src, o.dst, ldbc.RelLikes, o.w)
		return 1, 0, classify(err)
	case insertNode:
		id, err := tx.AddNode(ldbc.LabelPerson, nil)
		if err != nil {
			return 1, 0, err
		}
		_, err = tx.AddRel(o.src, id, ldbc.RelKnows, o.w)
		return 2, id, classify(err)
	case deleteRel:
		rels, err := tx.OutRels(o.src)
		if err != nil || len(rels) == 0 {
			return 1, 0, errNothingToDo
		}
		return 2, 0, classify(tx.DeleteRel(rels[0].ID))
	default: // deleteNode
		if len(cl.own) == 0 {
			return 0, 0, errNothingToDo
		}
		return 1, 0, classify(tx.DeleteNode(cl.own[0]))
	}
}

func classify(err error) error {
	if errors.Is(err, graph.ErrDuplicateEdge) || errors.Is(err, graph.ErrNotFound) {
		return errNothingToDo
	}
	return err
}

// retryable reports an MVTO conflict: the transaction lost a race and a
// fresh timestamp may win it.
func retryable(err error) bool {
	return errors.Is(err, graph.ErrWriteConflict) || errors.Is(err, graph.ErrMustAbort) ||
		errors.Is(err, mvto.ErrLocked) || errors.Is(err, mvto.ErrReadByNewer) ||
		errors.Is(err, mvto.ErrNotVisible)
}

const maxAttempts = 16

// client is one load-generating goroutine's private recorder; merge folds it
// into the pass accumulator after the set.
type client struct {
	id      int
	commit  *samples
	lag     *samples
	read    *samples
	acks    []ackRec
	txs     []txTrace
	own     []uint64 // Persons this client inserted and has not deleted, oldest first
	errs    []string // first few failure causes
	backoff uint64   // LCG state for retry pauses

	tracedNs, untracedNs []float64 // traced set: commit latency of the traced and the untraced transactions

	attempted, failed, committed, skipped int64
	attempts, retries                     int64
	readEdges, readNanos                  int64
}

func newClient(id, commits, reads int, traced, openLoop bool) *client {
	cl := &client{id: id, commit: newSamples(commits), read: newSamples(reads),
		acks: make([]ackRec, 0, commits/ackEvery+1)}
	if openLoop {
		cl.lag = newSamples(commits)
	}
	if traced {
		cl.txs = make([]txTrace, 0, commits)
	}
	return cl
}

// ackEvery thins the commit acks the high-rate embedded clients keep for the
// freshness metric; the durable clients, a thousand times slower, keep all.
const ackEvery = 8

// update runs one update operation as a transaction, retrying MVTO conflicts
// with a fresh timestamp, and records its latency from `from`: the time it
// was sent in a closed loop, the time it was due in an open loop. The tracing
// overhead is judged on the time since it was really sent, which in an open
// loop leaves out the wait a stall imposed.
func (cl *client) update(begin func() *h2tap.Tx, o *op, from, sent int64) {
	cl.attempted++
	var tr txTrace
	traced := cl.traceThis()
	for attempt := 1; ; attempt++ {
		cl.attempts++
		if traced {
			tr.t0 = now()
		}
		tx := begin()
		ts := uint64(tx.TS())
		if traced {
			tr.t1 = now()
		}
		n, created, err := cl.applyOp(tx, o)
		if err == nil {
			if traced {
				tr.t2 = now()
			}
			err = tx.Commit()
			end := now()
			if err == nil {
				switch o.kind {
				case insertNode:
					cl.own = append(cl.own, created)
				case deleteNode:
					cl.own = cl.own[1:]
				}
				cl.committed++
				cl.commit.add(end, float64(end-from))
				cl.noteOverhead(traced, float64(end-sent))
				if cl.committed%ackEvery == 0 {
					cl.acks = append(cl.acks, ackRec{at: end, ts: ts})
				}
				if traced {
					tr.t3, tr.ops, tr.client = end, int32(n), int32(cl.id)
					cl.txs = append(cl.txs, tr)
				}
				return
			}
		} else {
			tx.Abort() //nolint:errcheck // the op's error is the one that matters
		}
		switch {
		case errors.Is(err, errNothingToDo):
			if o.kind == deleteNode && len(cl.own) > 0 {
				cl.own = cl.own[1:]
			}
			cl.skipped++
			return
		case retryable(err) && attempt < maxAttempts:
			cl.retries++
			// Two clients retrying the same hot relationship in lockstep
			// keep invalidating each other's reads; a short random pause
			// breaks the symmetry.
			cl.backoff = cl.backoff*6364136223846793005 + 1442695040888963407
			spinUntil(now() + int64(cl.backoff>>33)%int64(attempt*100_000))
		default:
			cl.fail(err)
			return
		}
	}
}

// readTxs runs the read-only transaction every workload times — walk one
// node's visible out-neighbours — once per node, and records one sample: the
// mean latency over the group. The background reader groups readGroup
// transactions per sample (shardReadGroup on shard-2pc), because a single walk
// of a short adjacency list takes a few hundred nanoseconds, within a few
// clock quanta.
func (cl *client) readTxs(begin func() *h2tap.Tx, nodes []uint64) {
	cl.attempted += int64(len(nodes))
	t0 := now()
	edges := 0
	for _, node := range nodes {
		tx := begin()
		err := tx.Neighbors(node, func(uint64, float64) bool { edges++; return true })
		if err != nil && !errors.Is(err, graph.ErrNotFound) {
			tx.Abort() //nolint:errcheck
			cl.fail(err)
			return
		}
		if err := tx.Commit(); err != nil {
			cl.fail(err)
			return
		}
	}
	end := now()
	cl.read.add(end, float64(end-t0)/float64(len(nodes)))
	cl.readEdges += int64(edges)
	cl.readNanos += end - t0
}

const readGroup = 16

// traceThis reports whether the op now starting is recorded as spans. A
// traced set traces every other transaction of a client, so the traced and
// the untraced half run under the same conditions and their medians give
// the tracing overhead directly (two sets run one after the other differ by
// more than that on the sizing box).
func (cl *client) traceThis() bool { return cl.txs != nil && cl.attempted&1 == 1 }

func (cl *client) noteOverhead(traced bool, ns float64) {
	switch {
	case cl.txs == nil:
	case traced:
		cl.tracedNs = append(cl.tracedNs, ns)
	default:
		cl.untracedNs = append(cl.untracedNs, ns)
	}
}

// fail counts a failed op and keeps the first few causes for the report.
func (cl *client) fail(err error) {
	cl.failed++
	if len(cl.errs) < 3 {
		cl.errs = append(cl.errs, err.Error())
	}
}

// mergeClient folds one client's recorder into the pass after its set.
func (c *runCtx) mergeClient(cl *client) {
	a := &c.acc
	for _, e := range cl.errs {
		c.notes = append(c.notes, "op failed: "+e)
	}
	a.commit.merge(cl.commit)
	a.read.merge(cl.read)
	if cl.lag != nil {
		a.lag.merge(cl.lag)
	}
	a.acks = append(a.acks, cl.acks...)
	a.txs = append(a.txs, cl.txs...)
	a.tracedNs = append(a.tracedNs, cl.tracedNs...)
	a.untracedNs = append(a.untracedNs, cl.untracedNs...)
	a.attempted += cl.attempted
	a.failed += cl.failed
	a.committed += cl.committed
	a.skipped += cl.skipped
	a.attempts += cl.attempts
	a.retries += cl.retries
	a.readEdges += cl.readEdges
	a.readNanos += cl.readNanos
}

// analyst records analytics calls; safe for concurrent use.
func (c *runCtx) noteAnalytics(start, end int64, watermark uint64, res *h2tap.Result, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil || res == nil || len(res.Levels) == 0 || res.Degraded {
		c.failed++
		c.notes = append(c.notes, "analytics returned no result")
		return
	}
	c.analytics.add(end, float64(end-start))
	c.anaLog = append(c.anaLog, anaRec{start: start, end: end, watermark: watermark})
	if c.trace {
		c.results = append(c.results, resultRec{wall: time.Duration(end - start), hostWall: res.HostWall,
			kernelSim: time.Duration(res.KernelSim), modeled: res.TotalLatency(), propagated: res.Propagation.Triggered,
			scanWall: res.Propagation.ScanWall, mergeWall: res.Propagation.MergeWall})
	}
}

// bfs runs one BFS through the facade and records it. The watermark is the
// propagation bound when the call propagated, else the replica's current one.
func (c *runCtx) bfs(db *h2tap.DB, src uint64) {
	start := now()
	var res *h2tap.Result
	err := c.surviveScanRace(func() (err error) {
		res, err = db.RunAnalytics(h2tap.BFS, src)
		return err
	})
	end := now()
	var mark uint64
	if err == nil {
		if mark = uint64(res.Propagation.TS); mark == 0 {
			mark = db.Stats().ReplicaTS
		}
		if int(src) >= len(res.Levels) || res.Levels[src] != 0 {
			c.violate("BFS from %d: source not at level 0", src)
		}
	}
	c.noteAnalytics(start, end, mark, res, err)
}

// surviveScanRace runs an analytics call that may propagate while other
// clients commit. The engine has an open race there (ROADMAP item 1: a
// committer's ChunkedVector.Reserve publishes the new length before the
// chunk behind it exists, and a scan that starts inside that gap indexes past
// the chunk directory and panics). Only that panic is survived — an index out
// of range raised inside ChunkedVector.ForEachFrom; any other propagates and
// ends the run. It unwinds through deferred unlocks and the staged scan has
// consumed nothing, so the call is issued again, after the committer has had
// time to finish its allocation; the repeat is part of the call's latency and
// is counted (deltastore.scan_race_repeats), so the engine fix shows as that
// count going to 0. One call in 300 races on htap-*; a call that has raced
// scanRaceRepeats times running is something else, and its panic ends the run.
func (c *runCtx) surviveScanRace(call func() error) (err error) {
	for repeat := 0; ; repeat++ {
		raced := func() (raced bool) {
			defer func() {
				if p := recover(); p != nil {
					if repeat == scanRaceRepeats || !isScanRace(p, debug.Stack()) {
						panic(p)
					}
					raced = true
				}
			}()
			err = call()
			return false
		}()
		if !raced {
			return err
		}
		c.mu.Lock()
		c.scanRaces++
		c.mu.Unlock()
		time.Sleep(200 * time.Microsecond)
	}
}

const scanRaceRepeats = 3

// isScanRace recognises the reserve-vs-scan panic by what it is and where it
// was raised.
func isScanRace(p any, stack []byte) bool {
	re, ok := p.(runtime.Error)
	return ok && strings.Contains(re.Error(), "index out of range") &&
		bytes.Contains(stack, []byte("storage.(*ChunkedVector[")) && bytes.Contains(stack, []byte(".ForEachFrom"))
}

// volatileDB opens a volatile single-domain database, bulk-loads ds and
// starts the engine, returning the load and engine-start seconds.
func (c *runCtx) volatileDB(ds *snb, replica h2tap.ReplicaKind) (*h2tap.DB, float64, float64) {
	t0 := now()
	opts := h2tap.Options{Replica: replica}
	if c.trace {
		opts.OnPropagation = c.onCycle
	}
	db, err := h2tap.Open(opts)
	c.must(err, "open")
	c.must(db.BulkLoad(ds.Nodes, ds.Edges), "bulk load")
	t1 := now()
	c.must(db.StartEngine(), "start engine")
	t2 := now()
	return db, float64(t1-t0) / 1e9, float64(t2-t1) / 1e9
}

// onCycle collects propagation reports in the traced pass.
func (c *runCtx) onCycle(rep *h2tap.PropagationReport) {
	c.mu.Lock()
	c.cycles = append(c.cycles, *rep)
	c.mu.Unlock()
}

// heapIfTraced is the live heap after set-up, which only the traced pass
// needs (graph.heap_bytes_per_commit) and only it pays a collection for.
func (c *runCtx) heapIfTraced() float64 {
	if !c.trace {
		return 0
	}
	return liveHeap()
}

// noteHeap records the set's live heap over its reading before Open and,
// traced, what the window added over the reading after set-up.
func (c *runCtx) noteHeap(heap0, heapSetup float64) {
	heap1 := liveHeap()
	c.heap = append(c.heap, heap1-heap0)
	if c.trace {
		c.heapGrowth += heap1 - heapSetup
	}
}

// closeDurableWindow records a durable set's window and what the counting
// filesystem and the engine counters saw during it.
func (c *runCtx) closeDurableWindow(w window, db *h2tap.DB, fs *countFS, fs0 fsDelta, k0 counters) {
	c.windows = append(c.windows, w)
	c.setWin = append(c.setWin, w)
	c.fs = c.fs.add(fs.snapshot().sub(fs0))
	c.countWindow(k0, readCounters(db))
	c.fsSpans = append(c.fsSpans, fs.takeSpans()...)
}

// scrub is the single-domain correctness gate: the replica must equal the
// main graph at its watermark.
func (c *runCtx) scrub(db *h2tap.DB) {
	c.attempted++
	rep, err := db.Scrub()
	if err != nil || rep.Diverged {
		c.violate("scrub: diverged=%v err=%v", rep != nil && rep.Diverged, err)
	}
}

// volatileSet is the frame every volatile single-domain set shares: generate
// and load (timed as set-up), run the workload's window (with the background
// reader beside it unless the workload interleaves its own reads), measure
// the live heap, scrub, then restart. measure returns the intervals
// commits were measured over (nil: all of it). A volatile engine keeps
// nothing across a restart, so its recover_s is the reload of the source
// dataset and the rebuild of the replica.
func (c *runCtx) volatileSet(size snbSize, replica h2tap.ReplicaKind,
	prepare func(ds *snb) (cls []*client, backgroundReader bool),
	measure func(db *h2tap.DB, ds *snb, cls []*client) []window) {

	runtime.GC() // every set-up starts from a collected heap, as a fresh process would
	t0 := now()
	ds := generateSNB(size, c.seed)
	cls, reader := prepare(ds)
	gen := float64(now()-t0) / 1e9
	heap0 := liveHeap()
	db, load, engine := c.volatileDB(ds, replica)
	c.setups = append(c.setups, setupTimes{generate: gen, load: load, engine: engine})
	heapSetup := c.heapIfTraced()

	var k0 counters
	if c.trace {
		k0 = readCounters(db)
	}
	stopReader := func() *client { return nil }
	if reader {
		stopReader = startReader(func() *h2tap.Tx { return db.Begin() }, ds.quietPersons(c.seed), readGroup)
	}
	w := window{start: now()}
	ws := measure(db, ds, cls)
	w.end = now()
	if rd := stopReader(); rd != nil {
		cls = append(cls, rd)
	}
	if c.trace {
		c.countWindow(k0, readCounters(db))
	}
	if ws == nil {
		ws = []window{w}
	}
	c.windows = append(c.windows, ws...)
	c.setWin = append(c.setWin, w)

	c.noteHeap(heap0, heapSetup)
	for _, cl := range cls {
		c.mergeClient(cl)
	}
	c.endSet()
	c.scrub(db)
	if c.trace {
		c.probeReplica(db, ds)
	}

	c.must(db.Close(), "close")
	db = nil
	runtime.GC() // a restarted process does not collect its predecessor's heap
	t1 := now()
	db, _, _ = c.volatileDB(ds, replica)
	c.recover = append(c.recover, float64(now()-t1)/1e9)
	c.must(db.Close(), "close")
}

// readEvery is the pause between two read groups of the background reader:
// about a twentieth of a core on the sizing box.
const readEvery = 5 * time.Millisecond

// startReader runs the read-only transaction beside the workload for as long
// as the set's window lasts: one group of `group` neighbour walks every
// readEvery, over targets in order, one sample a group. The reads are spread
// over the whole window, not packed into a phase after it, because a
// pointer-chasing read is the first thing a noisy neighbour's cache traffic
// slows down and such spells last seconds: a 0.3 s phase sits inside one or
// outside it, and the same seed read 12 µs or 24 µs from run to run. targets
// are nodes the writers leave alone, so the reader causes no MVTO conflict.
// The returned stop function ends the reader and returns its recorder.
func startReader(begin func() *h2tap.Tx, targets []uint64, group int) (stop func() *client) {
	cl := newClient(-1, 0, 1024, false, false)
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		group := make([]uint64, group)
		for i := 0; ; i += len(group) {
			select {
			case <-quit:
				return
			case <-time.After(readEvery):
			}
			for j := range group {
				group[j] = targets[(i+j)%len(targets)]
			}
			cl.readTxs(begin, group)
		}
	}()
	return func() *client {
		close(quit)
		<-done
		return cl
	}
}

// quietPersons are the read targets of the background reader on the SNB
// workloads: a seeded draw from the lower-degree half of the Persons, which
// no update script touches.
func (d *snb) quietPersons(seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed*7919 + 11))
	half := d.byDegree[:len(d.byDegree)/2]
	out := make([]uint64, 4096)
	for i := range out {
		out[i] = half[r.Intn(len(half))]
	}
	return out
}
