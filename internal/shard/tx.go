package shard

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"h2tap/internal/graph"
	"h2tap/internal/htap"
	"h2tap/internal/mvto"
	"h2tap/internal/obs"
)

// Tx is a cluster-wide read-write transaction. It lazily opens one
// sub-transaction per touched shard and routes every operation to the owner
// domain via the partitioner's global↔local ID mapping. Opening against a
// Down shard is refused with a ShardDownError — one quarantined shard sheds
// exactly the traffic that touches it. Only the shards a transaction wrote
// take part in its commit: read-only participants drop out, one writer
// commits through the single-shard path and two or more run two-phase
// commit (see Commit). A Tx is used by one goroutine.
type Tx struct {
	c     *Cluster
	subs  map[int]*subTx
	done  bool
	trace *obs.Req // request trace; propagated to every sub-transaction
}

// SetTrace attaches a request trace to the cluster transaction and every
// sub-transaction (open now or opened later). The caller owns the trace's
// lifetime; clear with SetTrace(nil) if the transaction outlives the request.
func (t *Tx) SetTrace(r *obs.Req) {
	t.trace = r
	for _, s := range t.subs {
		s.tx.SetTrace(r)
	}
}

// subTx pins one shard's sub-transaction to the core incarnation it was
// opened against. If the shard is recovered mid-transaction, the commit
// guard rejects publication against the superseded core.
type subTx struct {
	tx   *graph.Tx
	core *domainCore
	d    *Domain
}

// Errors.
var (
	// ErrTxDone reports an operation on a finished cluster transaction.
	ErrTxDone = errors.New("shard: transaction already finished")
)

// Begin starts a cluster transaction.
func (c *Cluster) Begin() *Tx {
	return &Tx{c: c, subs: make(map[int]*subTx)}
}

// sub returns (opening if needed) the sub-transaction on shard i, shedding
// with a ShardDownError if the shard is quarantined.
func (t *Tx) sub(i int) (*subTx, error) {
	if s, ok := t.subs[i]; ok {
		return s, nil
	}
	d := t.c.domains[i]
	if st, _ := d.Health(); st == ShardDown {
		return nil, d.downErr()
	}
	core := d.core.Load()
	s := &subTx{tx: core.store.Begin(), core: core, d: d}
	s.tx.SetTrace(t.trace)
	t.subs[i] = s
	return s, nil
}

// AddNode creates a node, placed by hashing the cluster's allocation
// sequence, and returns its global ID.
func (t *Tx) AddNode(label string, props map[string]graph.Value) (uint64, error) {
	if t.done {
		return 0, ErrTxDone
	}
	shard := t.c.part.Place(t.c.seq.Add(1))
	s, err := t.sub(shard)
	if err != nil {
		return 0, err
	}
	local, err := s.tx.AddNode(label, props)
	if err != nil {
		return 0, err
	}
	return t.c.part.Global(shard, local), nil
}

// AddRel creates a relationship src→dst and returns its global ID. The edge
// lives in the source's shard; a cross-shard destination is checked for
// existence in its home shard (a recorded read, so a concurrent delete of
// the destination conflicts) and represented locally by a ghost node.
func (t *Tx) AddRel(src, dst uint64, label string, weight float64) (uint64, error) {
	if t.done {
		return 0, ErrTxDone
	}
	p := t.c.part
	ss, ds := p.ShardOf(src), p.ShardOf(dst)
	if ss == ds {
		s, err := t.sub(ss)
		if err != nil {
			return 0, err
		}
		rid, err := s.tx.AddRel(p.Local(src), p.Local(dst), label, weight)
		if err != nil {
			return 0, err
		}
		return p.Global(ss, rid), nil
	}
	// Cross-shard: validate the destination where it lives (records the
	// read, making this transaction a participant in the destination shard),
	// then insert against the local ghost in the owner shard.
	dsub, err := t.sub(ds)
	if err != nil {
		return 0, err
	}
	if !dsub.tx.NodeExists(p.Local(dst)) {
		return 0, fmt.Errorf("%w: destination node %d", graph.ErrNotFound, dst)
	}
	ssub, err := t.sub(ss)
	if err != nil {
		return 0, err
	}
	ghost, err := t.ghostFor(ss, dst)
	if err != nil {
		return 0, err
	}
	rid, err := ssub.tx.AddRel(p.Local(src), ghost, label, weight)
	if err != nil {
		return 0, err
	}
	return p.Global(ss, rid), nil
}

// ghostFor returns a local ghost node in owner standing in for global node
// gid, creating one inside this transaction if none is usable. The registry
// keeps the latest usable ghost per (shard, gid); reverse entries accumulate
// forever so any slot ever used as a ghost stays out of the composite view.
func (t *Tx) ghostFor(owner int, gid uint64) (graph.NodeID, error) {
	c := t.c
	s, err := t.sub(owner)
	if err != nil {
		return 0, err
	}
	c.ghostMu.Lock()
	defer c.ghostMu.Unlock()
	if local, ok := c.ghostFwd[owner][gid]; ok {
		if s.tx.NodeExists(local) {
			return local, nil
		}
	}
	local, err := s.tx.AddNode(GhostLabel,
		map[string]graph.Value{GhostGIDKey: graph.Int(int64(gid))})
	if err != nil {
		return 0, err
	}
	c.ghostFwd[owner][gid] = local
	c.ghostRev[owner][local] = gid
	return local, nil
}

// DeleteRel deletes a relationship by global ID (routed to the edge-owner
// shard).
func (t *Tx) DeleteRel(rel uint64) error {
	if t.done {
		return ErrTxDone
	}
	s, err := t.sub(t.c.part.ShardOf(rel))
	if err != nil {
		return err
	}
	return s.tx.DeleteRel(t.c.part.Local(rel))
}

// DeleteNode deletes a node and, cascading, every relationship attached to
// it cluster-wide: the home-shard delete cascades local edges (including
// outgoing cross-shard edges, which live at home against ghosts), and every
// remote ghost of the node is deleted too, cascading the incoming
// cross-shard edges stored in other shards.
func (t *Tx) DeleteNode(node uint64) error {
	if t.done {
		return ErrTxDone
	}
	p := t.c.part
	home := p.ShardOf(node)
	hs, err := t.sub(home)
	if err != nil {
		return err
	}
	if err := hs.tx.DeleteNode(p.Local(node)); err != nil {
		return err
	}
	t.c.ghostMu.RLock()
	ghosts := make(map[int]graph.NodeID)
	for s := range t.c.domains {
		if s == home {
			continue
		}
		if local, ok := t.c.ghostFwd[s][node]; ok {
			ghosts[s] = local
		}
	}
	t.c.ghostMu.RUnlock()
	for s, local := range ghosts {
		gs, err := t.sub(s)
		if err != nil {
			return fmt.Errorf("cascade ghost of node %d: %w", node, err)
		}
		if !gs.tx.NodeExists(local) {
			continue // ghost never committed or already gone
		}
		if err := gs.tx.DeleteNode(local); err != nil {
			return fmt.Errorf("shard %d: cascade ghost of node %d: %w", s, node, err)
		}
	}
	return nil
}

// SetNodeProp updates one property of a node in its home shard.
func (t *Tx) SetNodeProp(node uint64, key string, val graph.Value) error {
	if t.done {
		return ErrTxDone
	}
	s, err := t.sub(t.c.part.ShardOf(node))
	if err != nil {
		return err
	}
	return s.tx.SetNodeProp(t.c.part.Local(node), key, val)
}

// GetNodeProp reads one property of a node from its home shard.
func (t *Tx) GetNodeProp(node uint64, key string) (graph.Value, error) {
	if t.done {
		return graph.Value{}, ErrTxDone
	}
	s, err := t.sub(t.c.part.ShardOf(node))
	if err != nil {
		return graph.Value{}, err
	}
	return s.tx.GetNodeProp(t.c.part.Local(node), key)
}

// NodeExists reports whether a node is visible, recording the read. A node
// on a Down shard reads as absent (the shard is shed; callers needing the
// distinction use GetNodeProp, which returns the structured error).
func (t *Tx) NodeExists(node uint64) bool {
	if t.done {
		return false
	}
	s, err := t.sub(t.c.part.ShardOf(node))
	if err != nil {
		return false
	}
	return s.tx.NodeExists(t.c.part.Local(node))
}

// Participants reports the shards this transaction has touched so far, in
// ascending order.
func (t *Tx) Participants() []int {
	parts := make([]int, 0, len(t.subs))
	for s := range t.subs {
		parts = append(parts, s)
	}
	sort.Ints(parts)
	return parts
}

// Abort rolls every sub-transaction back.
func (t *Tx) Abort() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	var firstErr error
	for _, s := range t.subs {
		if err := s.tx.Abort(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// shedOrRaw classifies a commit-path failure on one shard: if the shard is
// (or just became) quarantined and the error is not already structured, it
// is wrapped in a ShardDownError so callers and the server see which
// failure domain shed the write.
func shedOrRaw(d *Domain, err error) error {
	if errors.Is(err, ErrShardDown) || errors.Is(err, htap.ErrBackpressure) {
		return err
	}
	if st, _ := d.Health(); st == ShardDown {
		return &ShardDownError{Shard: d.Index, Cause: err}
	}
	return err
}

// CommitPath is the way a cluster transaction committed (see Tx.Commit).
type CommitPath int

const (
	// CommitSingle: the transaction touched one shard.
	CommitSingle CommitPath = iota
	// CommitOneWriter: it touched several shards and wrote at most one; the
	// readers dropped out and the writer committed as a single-shard
	// transaction.
	CommitOneWriter
	// CommitTwoPhase: it wrote two or more shards, which ran two-phase
	// commit.
	CommitTwoPhase
	// NumCommitPaths is the number of commit paths.
	NumCommitPaths
)

// String is the path's metric label.
func (p CommitPath) String() string {
	switch p {
	case CommitOneWriter:
		return "one_writer"
	case CommitTwoPhase:
		return "two_phase"
	default:
		return "single"
	}
}

// Commit commits the transaction. Only the shards it wrote take part in the
// commit protocol: R*'s read-only and single-writer optimisations (Mohan,
// Lindsay & Obermarck, "Transaction Management in the R* Distributed
// Database Management System", TODS 1986).
//
// Read-only participants vote first. Each checks that its shard is not Down
// and still runs the core the transaction read (a read appends nothing, so
// backpressure does not apply), then commits locally, which writes nothing:
// no prepare or decision record, no commit gate held while other shards
// flush, no registry entry. Committing a reader early is safe under MVTO: a
// read's timestamp mark is set when the read happens, and write checks
// compare timestamps without looking at the reader's status, so an
// early-committed reader and one held prepared look the same to every other
// transaction. A failed vote aborts every sub-transaction before any record
// is written.
//
// One writer: its sub-transaction commits exactly as a single-shard
// transaction does (commit gate → WAL commit record → delta capture → MVTO
// publish). That commit record is the commit point; no coordinator state is
// touched, so a latched coordinator does not refuse it.
//
// Two or more writers: two-phase commit among the writers (twoPhase).
func (t *Tx) Commit() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true

	parts := t.Participants()
	if len(parts) == 0 {
		return nil
	}
	var writers []int
	for _, sidx := range parts {
		s := t.subs[sidx]
		if !s.tx.ReadOnly() {
			writers = append(writers, sidx)
			continue
		}
		err := s.d.liveErr(s.core)
		if err == nil {
			err = s.tx.Commit()
		}
		if err != nil {
			t.abortSubs()
			return shedOrRaw(s.d, err)
		}
	}

	path := CommitSingle
	if len(parts) > 1 {
		path = CommitOneWriter
	}
	switch len(writers) {
	case 0:
	case 1:
		s := t.subs[writers[0]]
		if err := s.tx.Commit(); err != nil {
			return shedOrRaw(s.d, err)
		}
	default:
		if err := t.twoPhase(writers); err != nil {
			return err
		}
		path = CommitTwoPhase
	}
	t.c.commits[path].Add(1)
	return nil
}

// abortSubs rolls back every sub-transaction still open; finished ones
// report ErrTxnDone, which is ignored.
func (t *Tx) abortSubs() {
	for _, s := range t.subs {
		s.tx.Abort() //nolint:errcheck
	}
}

// twoPhase commits a transaction that wrote the shards in parts (two or
// more, ascending). Phase one prepares every writer in ascending shard
// order — commit gate acquired and a prepare record (local timestamp +
// operations) appended to the shard WAL, synced per the cluster's sync
// policy. The transaction is then registered with the stitcher's
// cross-transaction registry. The commit point is the decision record
// appended to the coordinator log; after it, phase two appends a local
// decision record to each writer's WAL and publishes (delta capture + MVTO
// commit), releasing the gates.
//
// Participant failure: a prepare that fails — the shard was already Down,
// or the prepare append latched its WAL — aborts every participant
// (presumed abort: without a coordinator decision, recovery resolves the
// prepares to abort) and quarantines the failing shard if the failure was a
// persist error. A coordinator append failure likewise aborts (and latches
// only commits with two or more writers; see CoordErr). After the
// coordinator's decision is durable the outcome is commit, unconditionally:
// a phase-two failure quarantines the failing shard but does not surface an
// error, because the prepare record plus the coordinator decision guarantee
// the transaction survives that shard's recovery.
func (t *Tx) twoPhase(parts []int) error {
	c := t.c

	// A latched coordinator cannot durably decide: fail fast before taking
	// any commit gate.
	if err := c.CoordErr(); err != nil {
		t.abortSubs()
		return err
	}

	gtx := c.gtx.Add(1)
	rq := t.trace
	rq.Arg("gtx", strconv.FormatUint(gtx, 10))
	prepared := make(map[int]*graph.PreparedTx, len(parts))

	abortAll := func() {
		for _, sidx := range parts {
			s := t.subs[sidx]
			if p, ok := prepared[sidx]; ok {
				p.Finish(false, func() error {
					return s.d.logDecision(s.core, gtx, false, nil)
				})
			} else {
				s.tx.Abort()
			}
		}
		// Best-effort: shrinks the in-doubt window; absence still means
		// abort.
		c.logCoordDecision(gtx, false)
	}

	// Phase one, ascending shard order (the gate-ordering discipline that
	// keeps reader wait chains acyclic against checkpoint writers).
	partTS := make(map[int]mvto.TS, len(parts))
	for _, sidx := range parts {
		s := t.subs[sidx]
		sp := rq.Span("2pc.prepare", "2pc")
		sp.Arg("shard", strconv.Itoa(sidx))
		p, err := s.tx.PrepareCommit(func(ts mvto.TS, ops []graph.LoggedOp) error {
			if gerr := s.d.guardErr(s.core); gerr != nil {
				return gerr
			}
			return s.d.logPrepare(s.core, gtx, ts, ops, rq)
		})
		sp.End()
		if err != nil {
			abortAll()
			if shed := shedOrRaw(s.d, err); shed != err {
				return shed
			}
			return fmt.Errorf("shard %d: prepare: %w", sidx, err)
		}
		prepared[sidx] = p
		partTS[sidx] = p.TS()
	}

	// Register before any half can publish, so no stitch can cut between
	// the halves from here on.
	c.reg.add(gtx, partTS)

	// Commit point: the coordinator's durable decision. An errored append is
	// treated as abort, but the record may have landed before the error (a
	// lost ack), in which case the log — the commit point — says committed;
	// the note (registered before the append so no reconcile can slip into
	// the gap) lets RecoverCoordinator settle that contradiction.
	c.noteHeuristicAbort(gtx, parts)
	sp := rq.Span("2pc.decide", "2pc")
	err := c.logCoordDecisionTraced(gtx, true, rq)
	sp.End()
	if err != nil {
		c.reg.remove(gtx)
		abortAll()
		return fmt.Errorf("%w: decision append: %v", ErrCoordinatorDown, err)
	}
	c.dropHeuristicAbort(gtx)

	// Phase two: local decision records + publication. The coordinator
	// decided commit and recovery enforces it, so a participant failure here
	// quarantines that shard (its durable state now lags its siblings) but
	// the transaction itself is committed — every participant publishes and
	// the caller gets success.
	for _, sidx := range parts {
		s := t.subs[sidx]
		sp := rq.Span("2pc.apply", "2pc")
		sp.Arg("shard", strconv.Itoa(sidx))
		prepared[sidx].Finish(true, func() error {
			return s.d.logDecision(s.core, gtx, true, rq)
		})
		sp.End()
	}
	c.reg.markDone(gtx)
	return nil
}
