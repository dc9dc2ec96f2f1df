// Package deltastore implements DELTA_FE, the paper's core contribution
// (§5): a fast and efficient append-only graph delta store with a CSR-like
// layout.
//
// The store buffers the topology changes of committed transactions as
// fixed-size *delta records* (transaction timestamp, node ID, validity and
// deleted flags, offsets and counts) whose variable-length payloads — the
// destination IDs and weights of inserted relationships and the destination
// IDs of deleted relationships — are outsourced to three shared append-only
// arrays: inserts, weights and deletes (§5.1, Fig 2). Retrieving a record's
// updates takes three array lookups.
//
// Appends never read or modify existing deltas, so committing transactions
// reserve disjoint ranges with atomic adds and proceed without contention
// (§5.1's three performance benefits). The delta store scan (§5.2) runs
// inside a propagation transaction Tp: it consumes records that are *valid*
// (not used by a previous propagation cycle) and *visible* (appended by a
// transaction older than Tp — the MVTO extension of §5.3), combines
// per-node deltas from different transactions, and marks consumed records
// invalid.
package deltastore

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"h2tap/internal/delta"
	"h2tap/internal/mvto"
	"h2tap/internal/storage"
)

// record is one fixed-size delta record (§5.1). The state word is the
// publication point: appenders fill every other field first and store the
// state last; scanners ignore records whose ready bit is unset.
type record struct {
	ts     mvto.TS
	node   uint64
	insOff uint64
	delOff uint64
	insCnt uint32
	delCnt uint32
	state  atomic.Uint32
}

// state bits.
const (
	stReady    = 1 << iota // fully written and published
	stValid                // not yet consumed by a propagation cycle
	stDeleted              // the node was deleted
	stInserted             // the node was newly inserted
)

// RecordSize is the in-memory size of one delta record in bytes, used for
// footprint accounting.
const RecordSize = 48

// Store is the DELTA_FE delta store. The zero value is not usable; call
// NewVolatile or NewPersistent.
type Store struct {
	records *storage.ChunkedVector[record]
	inserts *storage.ChunkedVector[uint64]
	weights *storage.ChunkedVector[float64]
	deletes *storage.ChunkedVector[uint64]

	// deltaMode is the §6.4 flag: ON (true) while the cost model says
	// delta-based propagation beats a CSR rebuild. threshold is the delta
	// record count at which appenders flip it OFF; 0 means no threshold.
	deltaMode atomic.Bool
	threshold atomic.Uint64

	// clearMu lets Clear (rare) exclude appenders and scanners (frequent).
	clearMu sync.RWMutex

	// consumedPrefix is the record index below which every published
	// record has been consumed: scans and freshness checks start there
	// instead of walking the store's whole append-only history. Advanced
	// only by a committed scan (single scanner), reset by Clear.
	consumedPrefix atomic.Uint64

	// gen counts resets. A StagedScan captures it at stage time and
	// refuses to commit consumption if the store was cleared in between
	// (the staged records no longer exist).
	gen atomic.Uint64

	// highWater is the robustness backstop of the retry ladder: when the
	// record count reaches it, onHighWater fires (once per crossing,
	// re-armed by reset) so the engine can force an emergency propagation
	// or apply committer backpressure. 0 disables.
	highWater   atomic.Uint64
	hwFired     atomic.Bool
	onHighWater atomic.Value // func()

	skippedTxns atomic.Uint64

	// appendObs, when set, receives every Capture's appended record count
	// and insert/delete payload element counts. One atomic load when unset.
	appendObs atomic.Value // func(records, ins, dels int)

	persist *persistence // nil for the volatile store

	// mirrorMu serialises mirrored appends from reservation to length
	// publication (see Capture). Volatile appends never take it.
	mirrorMu sync.Mutex

	// persistBroken latches on the first PMem write failure. Mirroring
	// stops immediately — the durable image freezes at the last committed
	// transaction boundary, which recovery handles like any crash — and
	// PersistErr surfaces the cause so a caller can stop committing
	// instead of silently diverging from durable state.
	persistBroken atomic.Bool
	persistErrMu  sync.Mutex
	persistErr    error
}

// failPersist records the first persistence error and stops all mirroring.
func (s *Store) failPersist(err error) {
	s.persistErrMu.Lock()
	if s.persistErr == nil {
		s.persistErr = err
	}
	s.persistErrMu.Unlock()
	s.persistBroken.Store(true)
}

// PersistErr reports the sticky PMem write failure, if any. Once set, the
// persistent image no longer tracks the volatile store; callers that need
// durability must stop committing.
func (s *Store) PersistErr() error {
	s.persistErrMu.Lock()
	defer s.persistErrMu.Unlock()
	return s.persistErr
}

// mirroring reports whether persistent mirroring is active and healthy.
func (s *Store) mirroring() bool {
	return s.persist != nil && !s.persistBroken.Load()
}

// chunkShift sizes the delta table's fixed chunks at 8192 records (≈390 KB)
// and the payload arrays at 8192 elements (64 KB): small enough that the
// first transaction after a clear does not pay a multi-megabyte first-touch
// zeroing, large enough that multi-million-delta stores stay a handful of
// directory entries.
const chunkShift = 13

// NewVolatile returns an empty DRAM-resident delta store with delta mode
// enabled.
func NewVolatile() *Store {
	s := &Store{
		records: storage.NewChunkedVector[record](chunkShift),
		inserts: storage.NewChunkedVector[uint64](chunkShift),
		weights: storage.NewChunkedVector[float64](chunkShift),
		deletes: storage.NewChunkedVector[uint64](chunkShift),
	}
	s.deltaMode.Store(true)
	return s
}

var _ delta.Capturer = (*Store)(nil)

// Records reports the number of appended delta records (including consumed
// ones — the store is append-only until cleared).
func (s *Store) Records() uint64 { return s.records.Len() }

// ArrayBytes reports the paper's delta memory footprint metric (§6.3): the
// total size of stored elements in the inserts, weights and deletes arrays,
// each element being 8 bytes.
func (s *Store) ArrayBytes() uint64 {
	return (s.inserts.Len() + s.weights.Len() + s.deletes.Len()) * 8
}

// TotalBytes reports the full footprint: array elements plus delta records.
func (s *Store) TotalBytes() uint64 {
	return s.ArrayBytes() + s.records.Len()*RecordSize
}

// DeltaMode reports whether the store is accepting deltas (§6.4).
func (s *Store) DeltaMode() bool { return s.deltaMode.Load() }

// SetThreshold installs the cost-model delta-count threshold; 0 disables
// thresholding.
func (s *Store) SetThreshold(n uint64) {
	s.threshold.Store(n)
	if s.mirroring() {
		if err := s.persist.setThreshold(n); err != nil {
			s.failPersist(err)
		}
	}
}

// Threshold reports the installed threshold.
func (s *Store) Threshold() uint64 { return s.threshold.Load() }

// SetAppendObserver installs the append observer: fn is called at the end
// of every Capture that appended records, with the record count and the
// insert/delete payload element counts. fn must be safe for concurrent use;
// committers call it directly.
func (s *Store) SetAppendObserver(fn func(records, ins, dels int)) {
	s.appendObs.Store(fn)
}

// Depth reports the number of published-but-unconsumed records: the
// replica's ingestion backlog (append high-water minus the consumed
// prefix).
func (s *Store) Depth() uint64 {
	n := s.records.Len()
	if p := s.consumedPrefix.Load(); p < n {
		return n - p
	}
	return 0
}

// SkippedTxns reports how many committing transactions skipped appending
// because delta mode was off.
func (s *Store) SkippedTxns() uint64 { return s.skippedTxns.Load() }

// Capture appends one committed transaction's deltas (§5.1). It implements
// delta.Capturer and is invoked from the transaction's commit hook, so
// everything it sees is already committed. Appending is lookup-free: the
// transaction reserves disjoint ranges in the arrays and the record table
// and publishes each record by storing its state word last.
func (s *Store) Capture(d *delta.TxDelta) {
	if d.Empty() {
		return
	}
	s.clearMu.RLock()
	defer s.clearMu.RUnlock()

	if !s.deltaMode.Load() {
		s.skippedTxns.Add(1)
		return
	}
	if th := s.threshold.Load(); th > 0 &&
		s.records.Len()+uint64(len(d.Nodes)) > th {
		// §6.4: the transaction that would exceed the threshold flips the
		// delta mode flag off instead of appending; the store is cleared
		// at once and stays off until the next CSR rebuild re-enables it.
		if s.deltaMode.CompareAndSwap(true, false) {
			s.resetLocked()
			if s.mirroring() {
				if err := s.persist.setMode(false); err != nil {
					s.failPersist(err)
				}
			}
		}
		s.skippedTxns.Add(1)
		return
	}

	// A mirrored append holds mirrorMu from its reservations to its length
	// publication. Otherwise a later reservation could finish first and
	// publish durable lengths over this one's still unwritten records, and
	// a crash would leave a durable image that ends mid-transaction.
	mirrored := s.mirroring()
	if mirrored {
		s.mirrorMu.Lock()
	}

	// Coalesce this transaction's array payloads into single reservations.
	var insTotal, delTotal int
	for i := range d.Nodes {
		insTotal += len(d.Nodes[i].Ins)
		delTotal += len(d.Nodes[i].Del)
	}
	insBase := s.inserts.Reserve(insTotal)
	// Weights mirror inserts index-for-index, so they must share the
	// inserts reservation: taking a second independent reservation would
	// let concurrent committers interleave differently on the two cursors
	// and write their weights into each other's ranges.
	s.weights.EnsureLen(insBase + uint64(insTotal))
	delBase := s.deletes.Reserve(delTotal)
	recBase := s.records.Reserve(len(d.Nodes))

	insAt, delAt := insBase, delBase
	for i := range d.Nodes {
		nd := &d.Nodes[i]
		for j := range nd.Ins {
			*s.inserts.At(insAt + uint64(j)) = nd.Ins[j].Dst
			*s.weights.At(insAt + uint64(j)) = nd.Ins[j].W
		}
		for j := range nd.Del {
			*s.deletes.At(delAt + uint64(j)) = nd.Del[j]
		}

		rec := s.records.At(recBase + uint64(i))
		rec.ts = d.TS
		rec.node = nd.Node
		rec.insOff, rec.insCnt = insAt, uint32(len(nd.Ins))
		rec.delOff, rec.delCnt = delAt, uint32(len(nd.Del))
		state := uint32(stReady | stValid)
		if nd.Deleted {
			state |= stDeleted
		}
		if nd.Inserted {
			state |= stInserted
		}
		if s.mirroring() {
			if err := s.persist.mirror(recBase+uint64(i), rec, state, nd); err != nil {
				s.failPersist(err)
			}
		}
		rec.state.Store(state) // publication point

		insAt += uint64(len(nd.Ins))
		delAt += uint64(len(nd.Del))
	}
	if mirrored {
		if s.mirroring() {
			if err := s.persist.commitLens(); err != nil {
				s.failPersist(err)
			}
		}
		s.mirrorMu.Unlock()
	}
	s.checkHighWater()
	if fn, ok := s.appendObs.Load().(func(records, ins, dels int)); ok && fn != nil {
		fn(len(d.Nodes), insTotal, delTotal)
	}
}

// scanHit is one record reference collected by scan pass 1; the payloads
// stay in the shared arrays until grouping materializes them. idx is the
// record's table index, needed to mirror the invalidation to PMem when the
// consumption commits.
type scanHit struct {
	node uint64
	ts   mvto.TS
	rec  *record
	idx  uint64
}

// Scan is the delta store scan (§5.2) run by a propagation transaction with
// timestamp tp, using DefaultScanWorkers for the grouping pass. It
// combines, per node, every record that is valid and visible (appended by
// a transaction older than tp and fully published), marks the consumed
// records invalid, and returns the batch sorted by node ID. Records from
// transactions newer than tp — including those appended concurrently with
// the scan — are left for the next cycle (§5.3).
//
// Scan may run concurrently with Capture but not with another Scan: update
// propagation is serialized by the engine (§4.3, one replica version at a
// time).
func (s *Store) Scan(tp mvto.TS) *delta.Batch {
	return s.ScanWorkers(tp, 0)
}

// DefaultScanWorkers is the grouping-pass worker count Scan uses:
// GOMAXPROCS.
func DefaultScanWorkers() int {
	if w := runtime.GOMAXPROCS(0); w > 1 {
		return w
	}
	return 1
}

// ScanWorkers is Scan with an explicit worker count for pass 2 (grouping,
// Combine, sorting). It stages the scan and commits consumption
// immediately — the historical all-or-nothing-free behavior. Callers that
// must be able to roll back (the engine's failure-atomic propagation) use
// StageScanWorkers and commit only after the batch has been applied.
func (s *Store) ScanWorkers(tp mvto.TS, workers int) *delta.Batch {
	sc := s.StageScanWorkers(tp, workers)
	sc.Commit()
	return sc.Batch
}

// StagedScan is a delta store scan whose consumption has not happened yet:
// the batch is materialized, but every scanned record is still valid and
// the consumed prefix has not moved. Exactly one of Commit or Abandon must
// be called; until then no other scan may run (update propagation is
// serialized by the engine, §4.3).
type StagedScan struct {
	// Batch is the combined, node-sorted delta batch of the scan.
	Batch *delta.Batch

	s         *Store
	hits      []scanHit
	newPrefix uint64
	gen       uint64
	done      bool
}

// StageScanWorkers runs scan passes 1 and 2 (§5.2) without consuming: hits
// are collected and grouped, but record valid bits and the consumed prefix
// are untouched, so Abandon leaves the store exactly as if the scan never
// ran. This is the first half of the engine's failure-atomic propagation
// protocol — delta consumption commits only after the replica swap
// succeeded.
func (s *Store) StageScanWorkers(tp mvto.TS, workers int) *StagedScan {
	if workers <= 0 {
		workers = DefaultScanWorkers()
	}
	s.clearMu.RLock()
	defer s.clearMu.RUnlock()

	// Pass 1: collect valid+visible records as lightweight references.
	limit := s.records.Backed()
	start := s.consumedPrefix.Load()
	newPrefix := limit
	hits := make([]scanHit, 0, 256)
	s.forEachFrom(start, limit, func(i uint64, rec *record) bool {
		st := rec.state.Load()
		if st&stReady == 0 {
			// Not yet published; a future cycle's business — and a hole the
			// prefix cannot advance past.
			if i < newPrefix {
				newPrefix = i
			}
			return true
		}
		if rec.ts >= tp {
			// Not visible to Tp (§5.3): skipped, stays valid.
			if i < newPrefix {
				newPrefix = i
			}
			return true
		}
		if st&stValid == 0 {
			return true // already consumed in a previous cycle
		}
		hits = append(hits, scanHit{node: rec.node, ts: rec.ts, rec: rec, idx: i})
		return true
	})

	sc := &StagedScan{
		Batch:     &delta.Batch{TS: tp, Records: len(hits)},
		s:         s,
		hits:      hits,
		newPrefix: newPrefix,
		gen:       s.gen.Load(),
	}
	// Pass 2 may permute sc.hits (groupHits sorts in place); Commit's
	// invalidation walk is order-independent, so that is harmless.
	if workers > 1 && len(hits) >= 2 {
		sc.Batch.Deltas = s.groupParallel(hits, workers)
	} else {
		sc.Batch.Deltas = s.groupHits(hits)
	}
	return sc
}

// Commit consumes the staged records: valid bits are cleared (and mirrored
// to the persistent image), and the consumed prefix advances. Only one
// scanner runs at a time and appenders never revisit published records, so
// the plain read-modify-write on each state word is race-free (§5.3). If
// the store was cleared since the stage (a §6.4 rebuild-mode flip by a
// concurrent committer), Commit is a no-op: the staged records no longer
// exist and the pending rebuild covers their updates.
func (sc *StagedScan) Commit() {
	if sc.done {
		return
	}
	sc.done = true
	s := sc.s
	s.clearMu.RLock()
	defer s.clearMu.RUnlock()
	if s.gen.Load() != sc.gen {
		return
	}
	for i := range sc.hits {
		h := &sc.hits[i]
		st := h.rec.state.Load()
		h.rec.state.Store(st &^ stValid)
		if s.mirroring() {
			if err := s.persist.invalidate(h.idx); err != nil {
				s.failPersist(err)
			}
		}
	}
	if sc.newPrefix > s.consumedPrefix.Load() {
		s.consumedPrefix.Store(sc.newPrefix)
	}
}

// Abandon discards the staged scan without consuming anything: every
// staged record stays valid and the prefix stays put, so the next scan
// sees exactly what this one saw (plus anything newer) — the store is
// as-if the cycle never ran.
func (sc *StagedScan) Abandon() { sc.done = true }

// groupHits is scan pass 2: group hits by node (the sort keeps per-node
// parts in timestamp order for Combine and yields the node-sorted deltas
// Algorithm 2 consumes), combine and materialize.
func (s *Store) groupHits(hits []scanHit) []delta.Combined {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].node != hits[j].node {
			return hits[i].node < hits[j].node
		}
		return hits[i].ts < hits[j].ts
	})

	var out []delta.Combined
	for i := 0; i < len(hits); {
		j := i + 1
		for j < len(hits) && hits[j].node == hits[i].node {
			j++
		}
		var c delta.Combined
		if j == i+1 {
			// Fast path: one transaction touched this node; its NodeDelta
			// (disjoint Ins/Del by construction) only needs sorting.
			c = s.materialize(hits[i].rec)
			sort.Slice(c.Ins, func(a, b int) bool { return c.Ins[a].Dst < c.Ins[b].Dst })
			sort.Slice(c.Del, func(a, b int) bool { return c.Del[a] < c.Del[b] })
		} else {
			parts := make([]delta.NodeDelta, 0, j-i)
			for k := i; k < j; k++ {
				m := s.materialize(hits[k].rec)
				parts = append(parts, delta.NodeDelta{
					Node: m.Node, Inserted: m.Inserted, Deleted: m.Deleted,
					Ins: m.Ins, Del: m.Del,
				})
			}
			c = delta.Combine(hits[i].node, parts)
		}
		if !c.Empty() {
			out = append(out, c)
		}
		i = j
	}
	return out
}

// groupParallel shards pass 2 by node range: hits are scattered into
// node-range buckets chosen from sampled quantiles (so skewed node
// distributions still balance), each bucket is grouped by an independent
// worker via groupHits, and the per-bucket outputs concatenate — bucket
// ranges are disjoint and ascending, so the result is the same node-sorted
// delta list the serial pass produces. All hit mutation happened in pass 1;
// workers only read record payloads, which are immutable once published.
func (s *Store) groupParallel(hits []scanHit, workers int) []delta.Combined {
	// Quantile splitters from a strided sample of hit nodes.
	stride := len(hits) / 256
	if stride < 1 {
		stride = 1
	}
	sample := make([]uint64, 0, 256)
	for i := 0; i < len(hits); i += stride {
		sample = append(sample, hits[i].node)
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	splitters := make([]uint64, 0, workers-1)
	for k := 1; k < workers; k++ {
		sp := sample[k*len(sample)/workers]
		if len(splitters) == 0 || sp > splitters[len(splitters)-1] {
			splitters = append(splitters, sp)
		}
	}
	nb := len(splitters) + 1
	bucketOf := func(node uint64) int {
		return sort.Search(len(splitters), func(i int) bool { return node < splitters[i] })
	}

	// Counted scatter into one backing array, preserving arrival (and thus
	// timestamp) order within each bucket.
	counts := make([]int, nb)
	for i := range hits {
		counts[bucketOf(hits[i].node)]++
	}
	offs := make([]int, nb+1)
	for b := 0; b < nb; b++ {
		offs[b+1] = offs[b] + counts[b]
	}
	scattered := make([]scanHit, len(hits))
	cur := append([]int(nil), offs[:nb]...)
	for i := range hits {
		b := bucketOf(hits[i].node)
		scattered[cur[b]] = hits[i]
		cur[b]++
	}

	// Group each bucket in parallel, concatenate in bucket order.
	outs := make([][]delta.Combined, nb)
	var wg sync.WaitGroup
	for b := 0; b < nb; b++ {
		if counts[b] == 0 {
			continue
		}
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			outs[b] = s.groupHits(scattered[offs[b]:offs[b+1]])
		}(b)
	}
	wg.Wait()

	var total int
	for b := range outs {
		total += len(outs[b])
	}
	out := make([]delta.Combined, 0, total)
	for b := range outs {
		out = append(out, outs[b]...)
	}
	return out
}

// materialize reads one record's payload from the shared arrays — the
// three-lookup retrieval of §5.1.
func (s *Store) materialize(rec *record) delta.Combined {
	st := rec.state.Load()
	c := delta.Combined{
		Node:     rec.node,
		Deleted:  st&stDeleted != 0,
		Inserted: st&stInserted != 0,
	}
	if n := int(rec.insCnt); n > 0 {
		c.Ins = make([]delta.Edge, n)
		for j := 0; j < n; j++ {
			c.Ins[j] = delta.Edge{
				Dst: *s.inserts.At(rec.insOff + uint64(j)),
				W:   *s.weights.At(rec.insOff + uint64(j)),
			}
		}
	}
	if n := int(rec.delCnt); n > 0 {
		c.Del = make([]uint64, n)
		s.deletes.ReadInto(rec.delOff, c.Del)
	}
	return c
}

// PendingCount counts the published, still-valid records from transactions
// older than tp — the record half of the engine's staleness bound in
// Degraded mode. It walks from the consumed prefix, so its cost is
// proportional to the unconsumed tail.
func (s *Store) PendingCount(tp mvto.TS) int {
	n := 0
	s.forEachFrom(s.consumedPrefix.Load(), s.records.Backed(), func(_ uint64, rec *record) bool {
		st := rec.state.Load()
		if st&stReady != 0 && st&stValid != 0 && rec.ts < tp {
			n++
		}
		return true
	})
	return n
}

// SetHighWater installs the delta-record high-water mark: when the record
// count reaches it, the OnHighWater hook fires. This is the robustness
// backstop that keeps propagation retries from hiding unbounded store
// growth. 0 disables.
func (s *Store) SetHighWater(n uint64) { s.highWater.Store(n) }

// HighWater reports the installed high-water mark.
func (s *Store) HighWater() uint64 { return s.highWater.Load() }

// OverHighWater reports whether the record count has reached the mark.
func (s *Store) OverHighWater() bool {
	hw := s.highWater.Load()
	return hw > 0 && s.records.Len() >= hw
}

// OnHighWater registers fn to run when an append pushes the record count
// to the high-water mark — once per crossing, re-armed when the store is
// cleared. fn runs on the committing goroutine and must not block; the
// engine's hook kicks off an asynchronous emergency propagation.
func (s *Store) OnHighWater(fn func()) { s.onHighWater.Store(fn) }

// checkHighWater fires the hook on a crossing.
func (s *Store) checkHighWater() {
	if !s.OverHighWater() {
		return
	}
	if !s.hwFired.CompareAndSwap(false, true) {
		return
	}
	if fn, _ := s.onHighWater.Load().(func()); fn != nil {
		fn()
	}
}

// PendingAt reports whether any published record from a transaction older
// than tp is still valid — i.e. whether a propagation at tp would have work
// to do. The engine uses it for the freshness check (§4.3).
func (s *Store) PendingAt(tp mvto.TS) bool {
	pending := false
	s.forEachFrom(s.consumedPrefix.Load(), s.records.Backed(), func(_ uint64, rec *record) bool {
		st := rec.state.Load()
		if st&stReady != 0 && st&stValid != 0 && rec.ts < tp {
			pending = true
			return false
		}
		return true
	})
	return pending
}

// forEachFrom visits record indexes [start, limit).
func (s *Store) forEachFrom(start, limit uint64, fn func(i uint64, rec *record) bool) {
	s.records.ForEachFrom(start, limit, fn)
}

// Clear empties the store (all records and arrays). Used when switching to
// rebuild mode (§6.4) and by tests.
func (s *Store) Clear() {
	s.clearMu.Lock()
	defer s.clearMu.Unlock()
	s.resetLocked()
}

// EnableDeltaMode clears the store and turns delta mode back on — the §6.4
// transition after the CSR has been rebuilt.
func (s *Store) EnableDeltaMode() {
	s.clearMu.Lock()
	defer s.clearMu.Unlock()
	s.resetLocked()
	s.deltaMode.Store(true)
	if s.mirroring() {
		if err := s.persist.setMode(true); err != nil {
			s.failPersist(err)
		}
	}
}

func (s *Store) resetLocked() {
	s.gen.Add(1)
	s.hwFired.Store(false)
	s.consumedPrefix.Store(0)
	s.records.Reset()
	s.inserts.Reset()
	s.weights.Reset()
	s.deletes.Reset()
	if s.mirroring() {
		if err := s.persist.reset(); err != nil {
			s.failPersist(err)
		}
	}
}
