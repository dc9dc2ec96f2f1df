package graph

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"h2tap/internal/delta"
	"h2tap/internal/mvto"
	"h2tap/internal/obs"
)

// Transaction errors (beyond the mvto protocol errors, which are wrapped).
var (
	// ErrNotFound reports an access to a node or relationship that is not
	// visible to the transaction.
	ErrNotFound = errors.New("graph: object not found")
	// ErrWriteConflict reports a write to an object whose newest version is
	// newer than the writing transaction (a write-write conflict under
	// timestamp ordering).
	ErrWriteConflict = errors.New("graph: write-write conflict with newer version")
	// ErrMustAbort reports a commit attempt on a transaction that failed
	// partway through a multi-object operation and can only abort.
	ErrMustAbort = errors.New("graph: transaction must abort")
	// ErrDuplicateEdge reports an insert of a relationship that already
	// exists. The replica model identifies an edge by (source,
	// destination) — delta records store only destination IDs for deletes
	// (§5.1) — so the main graph keeps (src, dst) pairs unique.
	ErrDuplicateEdge = errors.New("graph: relationship already exists")
)

// beginWrite performs the §2.3 Update/Delete protocol against an object's
// version chain for transaction ts: verify the newest version is writable
// (unlocked or self-locked, visible, not read by a newer transaction),
// close its validity window at ts, and append the prepared next version
// (which the caller created locked by ts). The old version stays unlocked,
// so readers with timestamps in [bts, ts) keep reading it — "the old
// version of o is unlocked for read transactions", §2.3 — while the lock on
// the new version excludes concurrent writers.
// prep, if non-nil, runs under the chain lock after all checks pass and
// before the append, letting the caller derive the next version's payload
// from the verified newest version without a read-then-write race.
func beginWrite(chain *mvto.VersionChain, versions *[]*objVersion, ts mvto.TS, next *objVersion, prep func(newest *objVersion)) (*objVersion, error) {
	chain.Lock()
	defer chain.Unlock()
	vs := *versions
	if len(vs) == 0 {
		return nil, ErrNotFound
	}
	newest := vs[len(vs)-1]
	if holder := newest.meta.LockedBy(); holder != 0 && holder != ts {
		return nil, mvto.ErrLocked
	}
	if !newest.meta.VisibleTo(ts) {
		if newest.meta.BTS() > ts {
			return nil, ErrWriteConflict
		}
		return nil, ErrNotFound // deleted (tombstone) or self-deleted
	}
	if err := newest.meta.CheckWrite(ts); err != nil {
		return nil, err
	}
	if prep != nil {
		prep(newest)
	}
	newest.meta.SetETS(ts)
	*versions = append(vs, next)
	return newest, nil
}

func removeVersion(chain *mvto.VersionChain, versions *[]*objVersion, v *objVersion) {
	chain.Lock()
	defer chain.Unlock()
	vs := *versions
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i] == v {
			*versions = append(vs[:i], vs[i+1:]...)
			return
		}
	}
}

// RelInfo describes one relationship from a transactional read.
type RelInfo struct {
	ID     RelID
	Src    NodeID
	Dst    NodeID
	Weight float64
	Label  string
}

// Tx is a read-write transaction on the Store. It follows the MVTO access
// conditions of §2.3 and, at commit, hands its topology footprint to the
// store's delta capturers (§4.2). A Tx is used by one goroutine.
//
// The Tx itself is allocated fresh per Begin (so a stale handle kept past
// Commit/Abort sees a terminal status, never a recycled transaction), but
// everything it accumulates — delta builder, op log, version-publication
// hooks, built delta — lives in a pooled txState recycled across
// transactions, keeping the commit hot path allocation-free.
type Tx struct {
	s        *Store
	m        mvto.Txn // by value: status stays terminal after finish
	st       *txState // pooled accumulation state; nil once finished
	poisoned error
	trace    *obs.Req // request trace for commit-path spans; nil = untraced
}

// SetTrace attaches a request trace to the transaction; commit-path spans
// (delta build, commit gate, WAL append, delta capture, MVTO publish) are
// recorded against it. A nil trace (the default) keeps the commit hot path
// allocation- and clock-free. The caller owns the trace's lifetime and must
// clear it (SetTrace(nil)) before the trace is finished if the transaction
// outlives the request.
func (tx *Tx) SetTrace(r *obs.Req) { tx.trace = r }

// txHook is the version-publication work of one write operation, held in a
// reusable array instead of per-op closures. Commit unlocks the appended
// version and settles the live counter; abort removes the appended version
// from its chain, reopens the superseded version's validity window, and
// unlocks — exactly the pairs the closure-based hooks used to register.
type txHook struct {
	chain    *mvto.VersionChain
	versions *[]*objVersion
	v        *objVersion   // version this transaction appended
	old      *objVersion   // superseded version (nil for inserts)
	live     *atomic.Int64 // live-object counter (nil for property updates)
	delta    int64         // counter bump on commit
}

func (h *txHook) commit(ts mvto.TS) {
	h.v.meta.Unlock(ts)
	if h.live != nil {
		h.live.Add(h.delta)
	}
}

func (h *txHook) abort(ts mvto.TS) {
	removeVersion(h.chain, h.versions, h.v)
	if h.old != nil {
		h.old.meta.SetETS(mvto.Infinity)
	}
	h.v.meta.Unlock(ts)
}

// verChunkSize is the version-arena granularity: one allocation hands out
// this many objVersions. Versions outlive the transaction (they join the
// store's chains), so the arena amortizes allocation, it does not recycle.
const verChunkSize = 32

// txState is the pooled per-transaction accumulation state.
type txState struct {
	ts       mvto.TS
	b        *delta.Builder
	d        delta.TxDelta // reusable Build target
	ops      []LoggedOp    // logical op log, populated when a logger is registered
	hooks    []txHook
	verChunk []objVersion  // bump arena for version objects
	publish  func(mvto.TS) // prebound: runs hooks forward
	rollback func()        // prebound: runs hooks in reverse with st.ts
}

var txStatePool = sync.Pool{New: func() any {
	st := &txState{b: delta.NewBuilder()}
	st.publish = func(ts mvto.TS) {
		for i := range st.hooks {
			st.hooks[i].commit(ts)
		}
	}
	st.rollback = func() {
		for i := len(st.hooks) - 1; i >= 0; i-- {
			st.hooks[i].abort(st.ts)
		}
	}
	return st
}}

// addHook records one write's publication/rollback work.
func (tx *Tx) addHook(h txHook) { tx.st.hooks = append(tx.st.hooks, h) }

// newVersion hands out one version object from the state's bump arena.
func (st *txState) newVersion() *objVersion {
	if len(st.verChunk) == 0 {
		st.verChunk = make([]objVersion, verChunkSize)
	}
	v := &st.verChunk[0]
	st.verChunk = st.verChunk[1:]
	return v
}

// release returns the transaction's state to the pool, dropping every
// pointer into the store so pooled state pins nothing.
func (tx *Tx) release() {
	st := tx.st
	tx.st = nil
	clear(st.hooks)
	st.hooks = st.hooks[:0]
	clear(st.ops)
	st.ops = st.ops[:0]
	st.b.Reset()
	clear(st.d.Nodes)
	st.d.Nodes = st.d.Nodes[:0]
	txStatePool.Put(st)
}

// Begin starts a transaction.
func (s *Store) Begin() *Tx {
	tx := &Tx{s: s}
	s.oracle.BeginTxn(&tx.m)
	tx.st = txStatePool.Get().(*txState)
	tx.st.ts = tx.m.TS()
	return tx
}

// TS reports the transaction timestamp.
func (tx *Tx) TS() mvto.TS { return tx.m.TS() }

// ReadOnly reports whether the transaction has written nothing: every write
// path registers a publication hook, reads register none. (The op log is no
// test — it is only filled when a logger is registered.)
func (tx *Tx) ReadOnly() bool { return tx.st == nil || len(tx.st.hooks) == 0 }

// Commit commits the transaction: object versions are finalized and
// unlocked, then the topology delta is captured by every registered
// capturer — "the updates are also captured in the delta store during
// commit at the same time as they are persisted to the main graph" (§4.2).
func (tx *Tx) Commit() error {
	st := tx.st
	if st == nil {
		return mvto.ErrTxnDone
	}
	if tx.poisoned != nil {
		tx.m.AbortWith(st.rollback)
		tx.release()
		return fmt.Errorf("%w: %v", ErrMustAbort, tx.poisoned)
	}
	ts := tx.m.TS()
	rq := tx.trace
	// Build the delta outside the gate — only logging, capture and publish
	// need its cover; everything in the gated span below is allocation-free
	// and the WAL append is batched, keeping the span a checkpoint barrier
	// must drain as short as the durability rules allow.
	sp := rq.Span("delta.build", "engine")
	d := st.b.BuildInto(ts, &st.d)
	sp.End()
	// The commit gate is held shared from write-ahead logging through
	// publication so a checkpoint barrier never splits the two (a txn in
	// the old log but not in the snapshot would vanish from durable state).
	sp = rq.Span("commit.gate", "engine")
	tx.s.commitGate.RLock()
	sp.End()
	// Write-ahead: the op log persists before the commit becomes visible.
	// A logging failure aborts the transaction.
	if len(st.ops) > 0 {
		if err := tx.s.logCommit(ts, st.ops, rq); err != nil {
			tx.s.commitGate.RUnlock()
			tx.m.AbortWith(st.rollback)
			tx.release()
			return fmt.Errorf("graph: write-ahead log: %w", err)
		}
	}
	// Capture the delta BEFORE version publication unlocks the touched
	// objects (CommitWith runs the per-op unlock hooks). Capture-then-
	// unlock means two transactions touching the same node append their
	// records in lock order = timestamp order; with capture as a commit
	// hook after the unlocks, the later transaction could append first and
	// a scan landing between the two captures would hand the replica the
	// deltas across two cycles in reverse timestamp order. The transaction
	// is already write-ahead logged, so it can no longer abort.
	sp = rq.Span("delta.capture", "engine")
	tx.s.capture(d)
	sp.End()
	sp = rq.Span("mvto.publish", "engine")
	err := tx.m.CommitWith(st.publish)
	sp.End()
	tx.s.commitGate.RUnlock()
	tx.release()
	return err
}

// Abort rolls the transaction back. No deltas are appended for aborted
// transactions (§5.1).
func (tx *Tx) Abort() error {
	st := tx.st
	if st == nil {
		return mvto.ErrTxnDone
	}
	err := tx.m.AbortWith(st.rollback)
	tx.release()
	return err
}

// AddNode creates a node with the given label and properties, returning its
// ID. The node is visible to this transaction immediately and to others
// after commit.
func (tx *Tx) AddNode(label string, props map[string]Value) (NodeID, error) {
	if tx.m.Status() != mvto.Active {
		return 0, mvto.ErrTxnDone
	}
	ts := tx.m.TS()
	v := tx.st.newVersion()
	v.props = tx.s.internProps(props)
	v.meta.InitInsert(ts)

	id := tx.s.nodes.Reserve(1)
	n := tx.s.nodes.At(id)
	n.label = tx.s.dict.Code(label)
	n.appendVersion(v)
	tx.s.labels.add(n.label, id)

	tx.addHook(txHook{
		chain: &n.chain, versions: &n.versions, v: v,
		live: &tx.s.liveNodes, delta: 1,
	})
	tx.st.b.InsertNode(id)
	tx.logOp(LoggedOp{Kind: OpAddNode, ID: id, Label: label, Props: props})
	return id, nil
}

// AddRel creates a relationship src→dst with the given label and weight.
// Both endpoints must be visible to the transaction; reading them is
// recorded so older transactions cannot delete them afterwards.
func (tx *Tx) AddRel(src, dst NodeID, label string, weight float64) (RelID, error) {
	if tx.m.Status() != mvto.Active {
		return 0, mvto.ErrTxnDone
	}
	ts := tx.m.TS()
	sn, err := tx.s.node(src)
	if err != nil {
		return 0, err
	}
	dn, err := tx.s.node(dst)
	if err != nil {
		return 0, err
	}
	sv, dv := sn.visible(ts), dn.visible(ts)
	if sv == nil {
		return 0, fmt.Errorf("%w: source node %d", ErrNotFound, src)
	}
	if dv == nil {
		return 0, fmt.Errorf("%w: destination node %d", ErrNotFound, dst)
	}
	sv.meta.RecordRead(ts)
	dv.meta.RecordRead(ts)

	// Fast-path duplicate check before allocating a relationship slot. This
	// alone is racy — two concurrent inserts of the same (src, dst) can both
	// pass it before either publishes — so the authoritative check runs
	// again below, after our own adjacency entry is appended.
	for _, rid := range sn.snapshotOut() {
		r := tx.s.rels.At(rid)
		dup := r.dst == dst
		if tx.s.undirected {
			dup = r.other(src) == dst
		}
		if dup && r.visible(ts) != nil {
			return 0, fmt.Errorf("%w: %d→%d", ErrDuplicateEdge, src, dst)
		}
	}

	v := tx.st.newVersion()
	v.weight = weight
	v.meta.InitInsert(ts)
	id := tx.s.rels.Reserve(1)
	r := tx.s.rels.At(id)
	r.label = tx.s.dict.Code(label)
	r.src, r.dst = src, dst
	r.appendVersion(v)

	// Adjacency lists are append-only; an aborted insert leaves a
	// permanently invisible entry, which readers filter by version.
	// Undirected edges enter both endpoints' out lists (§5.1); directed
	// edges enter the source's out list and the destination's in list.
	// The pre-append slice headers delimit the entries that published
	// before ours in each list, for the authoritative duplicate check.
	sn.chain.Lock()
	outBefore := sn.out[:len(sn.out):len(sn.out)]
	sn.out = append(sn.out, id)
	sn.chain.Unlock()
	var dnBefore []RelID
	if tx.s.undirected {
		if dst != src {
			dn.chain.Lock()
			dnBefore = dn.out[:len(dn.out):len(dn.out)]
			dn.out = append(dn.out, id)
			dn.chain.Unlock()
		}
	} else {
		dn.chain.Lock()
		dn.in = append(dn.in, id)
		dn.chain.Unlock()
	}

	// First-appender-wins duplicate resolution: now that our entry is
	// published, re-scan the entries that were appended before it. If any
	// of them is the same logical edge and potentially alive, we are the
	// second appender and must give way — the earlier appender (if still
	// in flight) will NOT see us in its own earlier-slice scan, so exactly
	// the later of two racing inserts backs off. Without this, two
	// concurrent inserts of the same (src, dst) both pass the pre-check
	// (neither can see the other's uncommitted version) and both commit,
	// leaving the store with a duplicate edge its replica model (§5.1
	// identifies edges by (src, dst)) cannot represent.
	if err := tx.dupAfterAppend(outBefore, dnBefore, src, dst, id); err != nil {
		removeVersion(&r.chain, &r.versions, v)
		v.meta.Unlock(ts)
		return 0, err
	}

	tx.addHook(txHook{
		chain: &r.chain, versions: &r.versions, v: v,
		live: &tx.s.liveRels, delta: 1,
	})
	// §5.1: a directed insert appends a single delta mapped to the source;
	// an undirected insert appends two, one mapped to each endpoint.
	tx.st.b.InsertEdge(src, dst, weight)
	if tx.s.undirected && dst != src {
		tx.st.b.InsertEdge(dst, src, weight)
	}
	tx.logOp(LoggedOp{Kind: OpAddRel, ID: id, Src: src, Dst: dst, Label: label, Weight: weight})
	return id, nil
}

// dupAfterAppend is the authoritative duplicate-edge check, run after the
// caller's own adjacency entry is published. It scans the entries that were
// appended before ours in each list and reports a conflict if any of them
// is the same logical edge and potentially alive at or after our timestamp:
//
//   - visible at ts, or committed with an end timestamp after ts (its
//     lifetime overlaps ours): a real duplicate;
//   - write-locked by another transaction: an in-flight insert or delete
//     whose outcome we cannot see — conservatively a conflict (if that
//     transaction aborts, this is a false positive; the caller retries).
//
// Entries appended after ours run the same scan and see us, so of two
// racing inserts exactly the later appender backs off.
func (tx *Tx) dupAfterAppend(outBefore, dnBefore []RelID, src, dst NodeID, self RelID) error {
	ts := tx.m.TS()
	for _, list := range [2][]RelID{outBefore, dnBefore} {
		for _, rid := range list {
			if rid == self {
				continue
			}
			r := tx.s.rels.At(rid)
			dup := r.src == src && r.dst == dst
			if tx.s.undirected {
				dup = dup || (r.src == dst && r.dst == src)
			}
			if !dup {
				continue
			}
			v := r.newest()
			if v == nil {
				continue
			}
			switch holder := v.meta.LockedBy(); {
			case holder == ts:
				// Our own earlier write in this transaction: a duplicate
				// only if it is visible to us (we inserted it; a tombstone
				// we wrote means we deleted it and may re-insert).
				if r.visible(ts) != nil {
					return fmt.Errorf("%w: %d→%d", ErrDuplicateEdge, src, dst)
				}
			case holder != 0:
				return fmt.Errorf("%w: concurrent write to edge %d→%d", ErrWriteConflict, src, dst)
			case v.meta.ETS() > ts:
				return fmt.Errorf("%w: %d→%d", ErrDuplicateEdge, src, dst)
			}
		}
	}
	return nil
}

// deleteRel performs the §2.3 Delete protocol on a relationship record.
func (tx *Tx) deleteRel(id RelID, r *rel) error {
	ts := tx.m.TS()
	tomb := tx.st.newVersion()
	tomb.meta.InitTombstone(ts)
	old, err := beginWrite(&r.chain, &r.versions, ts, tomb, nil)
	if err != nil {
		return err
	}
	tx.addHook(txHook{
		chain: &r.chain, versions: &r.versions, v: tomb, old: old,
		live: &tx.s.liveRels, delta: -1,
	})
	tx.logOp(LoggedOp{Kind: OpDeleteRel, ID: id})
	return nil
}

// DeleteRel deletes a relationship by ID.
func (tx *Tx) DeleteRel(id RelID) error {
	if tx.m.Status() != mvto.Active {
		return mvto.ErrTxnDone
	}
	r, err := tx.s.rel(id)
	if err != nil {
		return err
	}
	if err := tx.deleteRel(id, r); err != nil {
		return fmt.Errorf("delete relationship %d: %w", id, err)
	}
	tx.st.b.DeleteEdge(r.src, r.dst)
	if tx.s.undirected && r.src != r.dst {
		tx.st.b.DeleteEdge(r.dst, r.src)
	}
	return nil
}

// DeleteNode deletes a node and, cascading, every relationship attached to
// it — the paper's Delete Node operation (§6.2). The captured delta is one
// deleted-flag record for the node itself (its outgoing edges are implied,
// §5.1) plus one delete entry per incoming edge, mapped to that edge's
// source node.
//
// If a cascaded relationship delete conflicts with a concurrent
// transaction, DeleteNode returns the conflict error and the transaction is
// poisoned: it can only abort.
func (tx *Tx) DeleteNode(id NodeID) error {
	if tx.m.Status() != mvto.Active {
		return mvto.ErrTxnDone
	}
	ts := tx.m.TS()
	n, err := tx.s.node(id)
	if err != nil {
		return err
	}
	tomb := tx.st.newVersion()
	tomb.meta.InitTombstone(ts)
	old, err := beginWrite(&n.chain, &n.versions, ts, tomb, nil)
	if err != nil {
		return fmt.Errorf("delete node %d: %w", id, err)
	}
	tx.addHook(txHook{
		chain: &n.chain, versions: &n.versions, v: tomb, old: old,
		live: &tx.s.liveNodes, delta: -1,
	})

	// Cascade over attached relationships. Failures leave the transaction
	// abort-only; the registered undo hooks clean up everything done so
	// far. The node's own side needs no explicit deltas — its deleted flag
	// subsumes its outgoing edges (§5.1) — but each *other* endpoint whose
	// adjacency loses an edge gets a delete delta mapped to it.
	// tx.deleteRel distinguishes the cascade's three cases: ErrNotFound
	// means the relationship is already (visibly) gone and is skipped;
	// a lock or write conflict — including a version invisible only
	// because an in-flight transaction holds it — poisons the transaction.
	for _, rid := range n.snapshotOut() {
		r := tx.s.rels.At(rid)
		if err := tx.deleteRel(rid, r); err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			tx.poisoned = err
			return fmt.Errorf("delete node %d: cascade out-edge %d: %w", id, rid, err)
		}
		if tx.s.undirected {
			if other := r.other(id); other != id {
				tx.st.b.DeleteEdge(other, id)
			}
		}
	}
	if !tx.s.undirected {
		for _, rid := range n.snapshotIn() {
			r := tx.s.rels.At(rid)
			if r.src == id {
				continue // self-loop, already handled via the out list
			}
			if err := tx.deleteRel(rid, r); err != nil {
				if errors.Is(err, ErrNotFound) {
					continue
				}
				tx.poisoned = err
				return fmt.Errorf("delete node %d: cascade in-edge %d: %w", id, rid, err)
			}
			tx.st.b.DeleteEdge(r.src, id)
		}
	}

	tx.st.b.DeleteNode(id)
	tx.logOp(LoggedOp{Kind: OpDeleteNode, ID: id})
	return nil
}

// NodeExists reports whether node id is visible to this transaction,
// recording the read.
func (tx *Tx) NodeExists(id NodeID) bool {
	n, err := tx.s.node(id)
	if err != nil {
		return false
	}
	v := n.visible(tx.m.TS())
	if v == nil {
		return false
	}
	v.meta.RecordRead(tx.m.TS())
	return true
}

// NodeLabel returns the label of a visible node.
func (tx *Tx) NodeLabel(id NodeID) (string, error) {
	n, err := tx.s.node(id)
	if err != nil {
		return "", err
	}
	v := n.visible(tx.m.TS())
	if v == nil {
		return "", fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	v.meta.RecordRead(tx.m.TS())
	return tx.s.dict.String(n.label), nil
}

// GetNodeProp reads one property of a visible node.
func (tx *Tx) GetNodeProp(id NodeID, key string) (Value, error) {
	n, err := tx.s.node(id)
	if err != nil {
		return Value{}, err
	}
	v := n.visible(tx.m.TS())
	if v == nil {
		return Value{}, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	v.meta.RecordRead(tx.m.TS())
	code, ok := tx.s.dict.Lookup(key)
	if !ok {
		return Value{}, nil
	}
	return v.props[code], nil
}

// SetNodeProp updates one property of a node, creating a new version under
// the §2.3 Update protocol. Property changes do not alter topology and
// produce no delta (§5.1: deltas capture changes that alter the topology).
func (tx *Tx) SetNodeProp(id NodeID, key string, val Value) error {
	if tx.m.Status() != mvto.Active {
		return mvto.ErrTxnDone
	}
	ts := tx.m.TS()
	n, err := tx.s.node(id)
	if err != nil {
		return err
	}
	next := tx.st.newVersion()
	next.meta.InitInsert(ts)
	keyCode := tx.s.dict.Code(key)
	old, err := beginWrite(&n.chain, &n.versions, ts, next, func(newest *objVersion) {
		props := make(map[uint32]Value, len(newest.props)+1)
		for k, v := range newest.props {
			props[k] = v
		}
		props[keyCode] = val
		next.props = props
	})
	if err != nil {
		return fmt.Errorf("update node %d: %w", id, err)
	}
	tx.addHook(txHook{chain: &n.chain, versions: &n.versions, v: next, old: old})
	tx.logOp(LoggedOp{Kind: OpSetNodeProp, ID: id, Key: key, Val: val})
	return nil
}

// OutRels lists the visible outgoing relationships of a node, recording
// reads on them.
func (tx *Tx) OutRels(id NodeID) ([]RelInfo, error) {
	ts := tx.m.TS()
	n, err := tx.s.node(id)
	if err != nil {
		return nil, err
	}
	nv := n.visible(ts)
	if nv == nil {
		return nil, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	nv.meta.RecordRead(ts)
	var out []RelInfo
	for _, rid := range n.snapshotOut() {
		r := tx.s.rels.At(rid)
		if rv := r.visible(ts); rv != nil {
			rv.meta.RecordRead(ts)
			out = append(out, RelInfo{
				ID: rid, Src: r.src, Dst: r.dst,
				Weight: rv.weight, Label: tx.s.dict.String(r.label),
			})
		}
	}
	return out, nil
}

// Neighbors visits the visible out-neighbors of a node (a local traversal,
// the typical transactional graph read).
func (tx *Tx) Neighbors(id NodeID, fn func(dst NodeID, weight float64) bool) error {
	rels, err := tx.OutRels(id)
	if err != nil {
		return err
	}
	for _, r := range rels {
		if !fn(r.Dst, r.Weight) {
			return nil
		}
	}
	return nil
}

func (s *Store) internProps(props map[string]Value) map[uint32]Value {
	if len(props) == 0 {
		return nil
	}
	m := make(map[uint32]Value, len(props))
	for k, v := range props {
		m[s.dict.Code(k)] = v
	}
	return m
}
