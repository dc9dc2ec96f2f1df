// Package wal provides write-ahead logging and recovery for the main
// property graph — the durability the paper's Poseidon store gets from
// keeping the main graph in persistent memory (§6.1, §6.5). Committed
// transactions append one length-prefixed, checksummed record carrying
// their logical operations; Replay folds the log into the final graph state
// and materializes it via graph.Store.Restore, ID-faithfully (holes from
// aborted transactions stay holes).
//
// Crash consistency: a record is applied only if fully written and its
// checksum matches; a torn tail is truncated, which is exactly the state an
// uncommitted transaction should leave behind (the logger runs *before* the
// MVTO commit publishes anything).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"h2tap/internal/graph"
	"h2tap/internal/mvto"
	"h2tap/internal/obs"
	"h2tap/internal/vfs"
)

// openFiles counts WAL file handles open across the process, exposed as a
// runtime-health gauge (per-shard WALs + coordinator log + main log).
var openFiles atomic.Int64

// OpenFiles reports the number of currently open WAL file handles.
func OpenFiles() int64 { return openFiles.Load() }

// Open flags, aliased so every file operation in this package goes through
// the injectable vfs layer rather than the os package directly.
const (
	openRDWR   = os.O_RDWR
	openCreate = os.O_CREATE
	openTrunc  = os.O_TRUNC
	ioSeekEnd  = io.SeekEnd
)

// ErrCorrupt reports a record whose checksum or structure is invalid before
// the log's tail (tails are tolerated, interior corruption is not).
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrLogFailed reports an append attempt on a log that has already hit an
// I/O error. A failed append may leave bytes whose relation to durable
// state is unknown; refusing further appends keeps the in-memory store from
// silently diverging from what recovery would rebuild.
var ErrLogFailed = errors.New("wal: log failed")

// Log is an append-only write-ahead log with leader/follower group commit.
//
// Committers frame their record into the current staging batch under mu;
// the first committer into an empty slot becomes the batch's leader. The
// leader detaches the batch and issues ONE Write carrying every staged
// record back to back — and, when SyncEveryCommit is set, ONE Sync for the
// whole batch — under ioMu, then wakes the followers with the shared
// outcome. Committers arriving while a flush is in progress stage into the
// next batch, so batch size adapts to device latency. Per-record framing is
// unchanged (each record carries its own size+checksum header), so the
// on-disk format is byte-identical to the serialized log and replay,
// torn-tail tolerance and corruption detection are untouched.
//
// Synced logs add a self-tuning linger (see linger): a leader with evidence
// that committers are about to come back keeps its batch open for them for
// a bounded fraction of the measured flush, so two committers that would
// otherwise phase-lock — each staging while the other flushes, each commit
// waiting out two flushes — share one.
//
// Failure semantics match the serialized path: a failed write or sync
// rewinds the file to the last durable batch boundary (truncate + seek) so
// no partial batch sits in the interior, every committer in the failed
// batch gets the error, and the log latches failed: later appends return
// ErrLogFailed rather than committing transactions whose durability is
// unknown.
//
// Ordering: records from different batches can land out of timestamp
// order, but never out of *causal* order. A transaction can only read or
// write state published by another after that writer's LogCommit returned
// durable (MVTO write locks are held across LogCommit and unlock IS
// publication), so any two records whose relative order matters are
// separated by a completed flush and appear in file order; replay folds
// the rest commutatively.
type Log struct {
	// ioMu serializes file I/O — batch flush, rotate, close — and defines
	// the order batches land in the file. Lock order: ioMu before mu.
	ioMu sync.Mutex
	// mu guards staging state: the current batch, the sticky failure, the
	// durable offset and the counters.
	mu     sync.Mutex
	fs     vfs.FS
	path   string
	f      vfs.File
	off    int64 // end of the last fully flushed batch
	sync   bool
	failed error

	gc   GroupCommit // normalized (MaxBatch >= 1)
	cur  *batch      // staging batch accepting joiners; nil when none
	pool sync.Pool   // *batch recycling (buffer + channels)

	// Linger state (see linger). flushing is set while a batch's I/O is
	// in flight; lastN is the size of the last successful flush;
	// lingerScore is the floored success score, lingerSkips the eligible
	// batches passed over since the score hit zero.
	flushing    bool
	lastN       int
	lingerScore int
	lingerSkips int

	appends     uint64 // records successfully appended
	appendBytes uint64 // bytes of those records (header + payload)
	syncs       uint64 // fsyncs issued by successful flushes
	batches     uint64 // successful batch flushes
	maxBatch    uint64 // largest records-per-flush observed
	flushNanos  uint64 // wall nanoseconds spent inside write+sync
	batchSeq    uint64 // batches ever started; stamps batch.seq
	lingers     uint64 // leaders that held their batch open for joiners
	lingerJoins uint64 // records that joined a batch while its leader lingered

	closed bool // file handle released (for the open-files gauge)

	// Enqueue-to-ack wait per append (staging through flush outcome),
	// lock-free so the follower path records without retaking mu. Always
	// on: group-commit queueing stays observable when tracing is sampled
	// out. waitMin uses 0 as the unset sentinel.
	waitSum atomic.Uint64
	waitMin atomic.Uint64
	waitMax atomic.Uint64
}

// batch is one group-commit unit: framed records from one or more
// committers, flushed by a single leader.
type batch struct {
	buf    []byte       // framed records, in join order
	n      int          // records staged
	seq    uint64       // batch sequence number, for trace correlation
	queued bool         // the leader staged while another batch was flushing
	err    error        // flush outcome; written before done tokens are sent
	refs   atomic.Int32 // members still to read err; the last one recycles
	// done carries n-1 tokens from the leader, one per follower, sent
	// after err is set. Buffered to MaxBatch so the leader never blocks.
	done chan struct{}
	// want is the member count a lingering leader waits for (0 when not
	// lingering; guarded by Log.mu). The joiner that reaches it sends the
	// one token on joined (capacity 1) and clears want.
	want   int
	joined chan struct{}
	// Leader-stamped flush timeline, written before err and therefore
	// ordered for followers by the done-channel send. Traced members turn
	// these into wal.write / wal.fsync spans after the ack; zero values
	// mean the flush never reached that point.
	flushStart time.Time
	writeEnd   time.Time
	syncEnd    time.Time
}

// Stats is a snapshot of the log's append counters.
type Stats struct {
	Appends     uint64 // commit records successfully appended
	AppendBytes uint64 // bytes written by those appends (header + payload)
	Syncs       uint64 // fsyncs issued on the append path
	Batches     uint64 // group-commit flushes issued (Appends/Batches = mean batch)
	MaxBatch    uint64 // largest records-per-flush observed
	FlushNanos  uint64 // wall nanoseconds spent inside batch write+sync
	Lingers     uint64 // leaders that held their batch open for joiners
	LingerJoins uint64 // records that joined a batch during a linger
	// Enqueue-to-ack wait per append: from entering the staging batch to
	// learning the flush outcome. Sum over all appends plus the observed
	// extremes, so group-commit queueing is visible even when request
	// tracing is sampled out. Min is 0 until the first append completes.
	WaitNanosSum uint64
	WaitNanosMin uint64
	WaitNanosMax uint64
	// Failed is the log's sticky failure latch, nil while healthy. A
	// latched log refuses every append with ErrLogFailed; exposing the
	// cause here lets health surfaces report it without waiting for the
	// next commit attempt to trip over it.
	Failed error
}

// Stats snapshots the append counters for metrics exposition.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends: l.appends, AppendBytes: l.appendBytes, Syncs: l.syncs,
		Batches: l.batches, MaxBatch: l.maxBatch, FlushNanos: l.flushNanos,
		Lingers: l.lingers, LingerJoins: l.lingerJoins,
		WaitNanosSum: l.waitSum.Load(), WaitNanosMin: l.waitMin.Load(),
		WaitNanosMax: l.waitMax.Load(),
		Failed:       l.failed,
	}
}

// noteWait folds one append's enqueue-to-ack wait into the lock-free
// wait counters.
func (l *Log) noteWait(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	l.waitSum.Add(ns)
	for {
		old := l.waitMin.Load()
		if old != 0 && old <= ns {
			break
		}
		if l.waitMin.CompareAndSwap(old, ns) {
			break
		}
	}
	for {
		old := l.waitMax.Load()
		if old >= ns {
			break
		}
		if l.waitMax.CompareAndSwap(old, ns) {
			break
		}
	}
}

// GroupCommit tunes the leader/follower batched flush.
type GroupCommit struct {
	// MaxBatch caps the records one flush covers (default 64). 1 gives
	// every record its own write+fsync — the serialized pre-group-commit
	// behavior, kept as the benchmark baseline.
	MaxBatch int
}

func (g GroupCommit) normalized() GroupCommit {
	if g.MaxBatch <= 0 {
		g.MaxBatch = 64
	}
	return g
}

// Linger tuning (see Log.linger). Fixed, not options: the bound scales
// with the measured flush and the score switches the linger off where it
// does not pay.
const (
	// lingerFrac: a linger lasts at most 1/lingerFrac of the mean flush.
	lingerFrac = 4
	// lingerCredit caps the success score: that many fruitless lingers in
	// a row switch the linger off.
	lingerCredit = 4
	// lingerProbe: while switched off, every lingerProbe-th eligible batch
	// lingers anyway, so a workload that changes shape turns it back on.
	lingerProbe = 32
)

// Options configures Open.
type Options struct {
	// SyncEveryCommit fsyncs after each commit batch (durability over
	// throughput). Without it the OS decides when bytes hit the platter,
	// as in most group-commit systems.
	SyncEveryCommit bool
	// GroupCommit tunes the batched flush (zero value = defaults).
	GroupCommit GroupCommit
	// FS overrides the filesystem (nil selects the real one). The
	// fault-injection harness uses it to crash individual appends and
	// syncs on the production code path.
	FS vfs.FS
	// truncate discards any existing content when opening. Checkpointing
	// sets it for the snapshot temp file so a leftover .tmp from a crashed
	// earlier checkpoint can never leave stale records ahead of the new
	// snapshot.
	truncate bool
}

func (o Options) fs() vfs.FS {
	if o.FS != nil {
		return o.FS
	}
	return vfs.OS()
}

// Open opens or creates a log at path for appending. Creating a log syncs
// its directory before Open returns: until then a power loss can drop the
// new file, and with it every commit acknowledged into it. (A checkpoint's
// truncating temp log is published by its rename's directory sync.)
func Open(path string, opts Options) (*Log, error) {
	fsys := opts.fs()
	flag := openRDWR | openCreate
	if opts.truncate {
		flag |= openTrunc
	}
	_, statErr := fsys.Stat(path)
	f, err := fsys.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if statErr != nil && !opts.truncate {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: open dir sync: %w", err)
		}
	}
	off, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	l := &Log{
		fs: fsys, path: path, f: f, off: off,
		sync: opts.SyncEveryCommit, gc: opts.GroupCommit.normalized(),
		lingerScore: lingerCredit,
	}
	l.pool.New = func() any {
		return &batch{
			done:   make(chan struct{}, l.gc.MaxBatch),
			joined: make(chan struct{}, 1),
		}
	}
	openFiles.Add(1)
	return l, nil
}

// Trim truncates the log at path to n bytes. Recovery calls it to discard a
// torn tail before reopening the log for appending, so the next append
// cannot land after garbage and turn a tolerated torn tail into interior
// corruption.
func Trim(fsys vfs.FS, path string, n int64) error {
	if fsys == nil {
		fsys = vfs.OS()
	}
	f, err := fsys.OpenFile(path, openRDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: trim open: %w", err)
	}
	if err := f.Truncate(n); err != nil {
		f.Close()
		return fmt.Errorf("wal: trim: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: trim sync: %w", err)
	}
	return f.Close()
}

// Close syncs and closes the log. Both steps always run and both failures
// surface: a sync error (including one on an already-failed log) no longer
// swallows the close error, which on many filesystems is the last chance to
// learn that buffered bytes never reached the device.
func (l *Log) Close() error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	syncErr := l.f.Sync()
	closeErr := l.f.Close()
	if !l.closed {
		l.closed = true
		openFiles.Add(-1)
	}
	return errors.Join(syncErr, closeErr)
}

var _ graph.OpLogger = (*Log)(nil)

// Err reports the log's sticky failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// encBuf is a pooled payload-encoding buffer, interned per committer so the
// hot commit path performs no per-record allocation.
type encBuf struct{ b []byte }

var encPool = sync.Pool{New: func() any { return new(encBuf) }}

// LogCommit appends one commit record with the transaction's operations.
// It implements graph.OpLogger and runs before the commit publishes; it
// returns only once the record's batch is durably flushed (per the sync
// policy) or failed.
func (l *Log) LogCommit(ts mvto.TS, ops []graph.LoggedOp) error {
	return l.LogCommitTraced(ts, ops, nil)
}

// LogCommitTraced is LogCommit carrying a request trace: the append's
// enqueue → write → fsync → ack breakdown is recorded as spans with the
// batch sequence number and the record's position in it, so co-batched
// requests are correlatable. rq may be nil.
func (l *Log) LogCommitTraced(ts mvto.TS, ops []graph.LoggedOp, rq *obs.Req) error {
	e := encPool.Get().(*encBuf)
	e.b = encodeCommit(e.b[:0], ts, ops)
	err := l.append(e.b, rq)
	encPool.Put(e)
	return err
}

// append frames payload as one record into the current staging batch and
// blocks until the batch containing it is flushed or failed. The caller
// owns payload only until append returns. With rq non-nil the member's
// share of the batch timeline is recorded as request spans.
func (l *Log) append(payload []byte, rq *obs.Req) error {
	start := time.Now()
	l.mu.Lock()
	if l.failed != nil {
		l.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrLogFailed, l.failed)
	}
	b := l.cur
	leader := b == nil
	if leader {
		b = l.pool.Get().(*batch)
		l.batchSeq++
		b.seq = l.batchSeq
		b.queued = l.flushing
		l.cur = b
	}
	b.refs.Add(1)
	hdr := len(b.buf)
	b.buf = append(b.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b.buf[hdr:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b.buf[hdr+4:], crc32.ChecksumIEEE(payload))
	b.buf = append(b.buf, payload...)
	b.n++
	pos := b.n - 1
	if b.n >= l.gc.MaxBatch {
		// Close the batch: later committers start — and lead — the next
		// one while this one flushes.
		l.cur = nil
	}
	if b.want > 0 && b.n >= b.want {
		// Wake the lingering leader: the company it waited for is here.
		// Never blocks: clearing want makes this the linger's one send.
		b.want = 0
		b.joined <- struct{}{}
	}
	l.mu.Unlock()

	if leader {
		err := l.flush(b, rq, start, pos)
		l.noteWait(time.Since(start))
		return err
	}
	<-b.done
	err := b.err
	if rq != nil {
		// Safe before release: this member's reference keeps the batch out
		// of the pool, and the done-channel send ordered the leader's
		// timestamp stamps before this read.
		b.recordSpans(rq, start, time.Now(), pos, l.sync)
	}
	l.release(b)
	l.noteWait(time.Since(start))
	return err
}

// flush writes (and per the sync policy syncs) one batch as a single I/O
// unit under ioMu, settles the counters, and wakes the batch's followers
// with the shared outcome. Only the batch's leader calls it; start/pos
// describe the leader's own membership for trace recording.
func (l *Log) flush(b *batch, rq *obs.Req, memberStart time.Time, pos int) error {
	l.ioMu.Lock()
	l.mu.Lock()
	l.linger(b)
	if l.cur == b {
		// Nobody filled the batch while the leader got here: detach it so
		// staging for the next batch proceeds during the I/O below.
		l.cur = nil
	}
	n := b.n
	if l.failed != nil {
		// An earlier batch failed after this one staged; nothing in this
		// one may land after bytes of unknown durability.
		err := fmt.Errorf("%w: %v", ErrLogFailed, l.failed)
		l.mu.Unlock()
		l.ioMu.Unlock()
		b.flushStart, b.writeEnd, b.syncEnd = time.Time{}, time.Time{}, time.Time{}
		b.err = err
		if rq != nil {
			b.recordSpans(rq, memberStart, time.Now(), pos, l.sync)
		}
		l.wake(b, n)
		return err
	}
	f := l.f
	l.flushing = true
	l.mu.Unlock()

	start := time.Now()
	b.flushStart = start
	b.writeEnd, b.syncEnd = time.Time{}, time.Time{}
	var ioErr error
	stage := ""
	if _, werr := f.Write(b.buf); werr != nil {
		ioErr, stage = werr, "append"
	} else {
		b.writeEnd = time.Now()
		if l.sync {
			if serr := f.Sync(); serr != nil {
				ioErr, stage = serr, "sync"
			} else {
				b.syncEnd = time.Now()
			}
		}
	}
	dur := time.Since(start)

	l.mu.Lock()
	l.flushing = false
	var err error
	if ioErr != nil {
		l.fail(ioErr)
		err = fmt.Errorf("wal: %s: %w", stage, ioErr)
	} else {
		l.lastN = n
		l.off += int64(len(b.buf))
		l.appends += uint64(n)
		l.appendBytes += uint64(len(b.buf))
		if l.sync {
			l.syncs++
		}
		l.batches++
		if uint64(n) > l.maxBatch {
			l.maxBatch = uint64(n)
		}
		l.flushNanos += uint64(dur.Nanoseconds())
	}
	l.mu.Unlock()
	l.ioMu.Unlock()
	b.err = err
	if rq != nil {
		b.recordSpans(rq, memberStart, time.Now(), pos, l.sync)
	}
	l.wake(b, n)
	return err
}

// linger keeps b open for committers the leader has evidence are about to
// come back, and returns once they have joined or the bound has passed.
// The caller is b's leader holding ioMu, so the flush ahead of b has
// finished, and mu, which linger drops while it waits.
//
// Evidence of company is either: the last flushed batch had more members
// than b has so far (they were acked together and return together), or b's
// leader staged while another batch was flushing (that batch's committers
// are on their way back now). A lone committer has neither and never
// lingers. The wait ends as soon as b holds as many members as the
// evidence promises — the joiner that makes the count wakes the leader on
// b.joined, so only a linger that times out pays the host's timer
// overshoot — and never lasts longer than 1/lingerFrac of the measured
// mean flush. Each
// linger scores: one that attracts a joiner earns a credit back (up to
// lingerCredit), a fruitless one spends one; at zero the log lingers only
// on every lingerProbe-th eligible batch, so a log whose committers move on
// elsewhere (a 2PC participant's) stops paying for it.
func (l *Log) linger(b *batch) {
	if !l.sync || l.failed != nil || l.cur != b || l.batches == 0 {
		return
	}
	want := l.lastN
	if b.queued {
		want = max(want, b.n+1)
	}
	if want = min(want, l.gc.MaxBatch); want <= b.n {
		return
	}
	if l.lingerScore == 0 {
		if l.lingerSkips++; l.lingerSkips < lingerProbe {
			return
		}
		l.lingerSkips = 0
	}
	bound := time.Duration(l.flushNanos / l.batches / lingerFrac)
	n0 := b.n
	b.want = want
	l.lingers++
	l.mu.Unlock()
	t := time.NewTimer(bound)
	select {
	case <-b.joined:
	case <-t.C:
	}
	t.Stop()
	l.mu.Lock()
	b.want = 0
	select { // drop a wake sent after the timer fired
	case <-b.joined:
	default:
	}
	joined := b.n - n0
	l.lingerJoins += uint64(joined)
	if joined > 0 {
		l.lingerScore = min(l.lingerScore+1, lingerCredit)
	} else if l.lingerScore > 0 {
		l.lingerScore--
	}
}

// recordSpans turns one member's view of the batch timeline into request
// spans: wal.enqueue (staging, waiting behind the previous flush and the
// leader's linger),
// wal.write, wal.fsync (sync policy permitting) and wal.ack (flush end to
// member wakeup). Batch sequence and record position ride as args so every
// co-batched request points at the same flush.
func (b *batch) recordSpans(rq *obs.Req, start, ack time.Time, pos int, synced bool) {
	seqArg := obs.L("batch", strconv.FormatUint(b.seq, 10))
	posArg := obs.L("pos", strconv.Itoa(pos))
	if b.flushStart.IsZero() {
		// The flush never started (failed latch): everything was queueing.
		rq.AddSpan("wal.enqueue", "wal", start, ack, seqArg, posArg)
		return
	}
	rq.AddSpan("wal.enqueue", "wal", start, b.flushStart, seqArg, posArg)
	if b.writeEnd.IsZero() {
		rq.AddSpan("wal.write", "wal", b.flushStart, ack, seqArg)
		return
	}
	rq.AddSpan("wal.write", "wal", b.flushStart, b.writeEnd, seqArg)
	last := b.writeEnd
	if synced {
		if b.syncEnd.IsZero() {
			rq.AddSpan("wal.fsync", "wal-fsync", b.writeEnd, ack, seqArg)
			return
		}
		rq.AddSpan("wal.fsync", "wal-fsync", b.writeEnd, b.syncEnd, seqArg)
		last = b.syncEnd
	}
	rq.AddSpan("wal.ack", "wal", last, ack, seqArg)
}

// wake hands the settled batch to its n-1 followers (b.err must be set
// first; the channel send orders the read) and drops the leader's own
// reference.
func (l *Log) wake(b *batch, n int) {
	for i := 1; i < n; i++ {
		b.done <- struct{}{}
	}
	l.release(b)
}

// release drops one member's reference to the batch; the last member
// recycles it — buffer, channels and all — into the pool.
func (l *Log) release(b *batch) {
	if b.refs.Add(-1) != 0 {
		return
	}
	b.buf = b.buf[:0]
	b.n = 0
	b.err = nil
	l.pool.Put(b)
}

// fail marks the log failed and rewinds to the last durable batch boundary,
// best-effort: if the medium refuses the truncate too, the partial bytes
// stay, but the failed flag guarantees nothing is appended after them and
// replay treats them as a torn tail.
func (l *Log) fail(err error) {
	l.failed = err
	if terr := l.f.Truncate(l.off); terr == nil {
		l.f.Seek(l.off, io.SeekStart)
	}
}

// Payload encoding: ts u64, opCount u32, then per op:
// kind u8, id u64, then kind-specific fields. Strings are u16 length +
// bytes; values are kind u8 + payload; props are u16 count + (key, value).

func encodeCommit(b []byte, ts mvto.TS, ops []graph.LoggedOp) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(ts))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
	for i := range ops {
		b = encodeOp(b, &ops[i])
	}
	return b
}

func encodeOp(b []byte, op *graph.LoggedOp) []byte {
	b = append(b, byte(op.Kind))
	b = binary.LittleEndian.AppendUint64(b, op.ID)
	switch op.Kind {
	case graph.OpAddNode:
		b = appendString(b, op.Label)
		b = appendProps(b, op.Props)
	case graph.OpAddRel:
		b = binary.LittleEndian.AppendUint64(b, op.Src)
		b = binary.LittleEndian.AppendUint64(b, op.Dst)
		b = appendString(b, op.Label)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op.Weight))
	case graph.OpDeleteNode, graph.OpDeleteRel:
		// id only
	case graph.OpSetNodeProp, graph.OpSetRelProp:
		b = appendString(b, op.Key)
		b = appendValue(b, op.Val)
	case graph.OpSetRelWeight:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op.Weight))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v graph.Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case graph.KindInt, graph.KindBool:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.AsInt()))
	case graph.KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.AsFloat()))
	case graph.KindString:
		b = appendString(b, v.AsString())
	}
	return b
}

func appendProps(b []byte, props map[string]graph.Value) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(props)))
	for k, v := range props {
		b = appendString(b, k)
		b = appendValue(b, v)
	}
	return b
}

// decoder is a bounds-checked cursor over one record payload.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) str() string {
	n := int(d.u16())
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) value() graph.Value {
	switch graph.Kind(d.u8()) {
	case graph.KindInt:
		return graph.Int(int64(d.u64()))
	case graph.KindBool:
		return graph.Bool(d.u64() != 0)
	case graph.KindFloat:
		return graph.Float(math.Float64frombits(d.u64()))
	case graph.KindString:
		return graph.Str(d.str())
	case graph.KindNil:
		return graph.Value{}
	default:
		d.fail()
		return graph.Value{}
	}
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func decodeCommit(b []byte) (mvto.TS, []graph.LoggedOp, error) {
	d := &decoder{b: b}
	ts := mvto.TS(d.u64())
	n := int(d.u32())
	if d.err != nil || n < 0 || n > 1<<26 {
		return 0, nil, ErrCorrupt
	}
	ops, err := decodeOps(d, n)
	if err != nil {
		return 0, nil, err
	}
	if d.off != len(b) {
		return 0, nil, ErrCorrupt
	}
	return ts, ops, nil
}
