package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"h2tap/internal/delta"
	"h2tap/internal/mvto"
	"h2tap/internal/storage"
)

// NodeID identifies a node. IDs are dense slot indexes in the node table,
// which is what lets the replica structures (CSR rows, per-vertex hash
// tables) index by node ID directly.
type NodeID = uint64

// RelID identifies a relationship (a slot index in the relationship table).
type RelID = uint64

// objVersion is one MVTO version of a node or relationship: concurrency
// metadata plus the property state as of that version. The property map is
// immutable once the version is published; updates copy-on-write a new
// version (§2.3 Update). For relationships the weight (the replica's edge
// value) is versioned too, so snapshot reads see the weight as of their
// timestamp.
type objVersion struct {
	meta   mvto.Meta
	props  map[uint32]Value
	weight float64 // relationships only
}

// node is a node record. Versions and adjacency are append-only; the chain
// mutex serializes structural appends while readers snapshot under it
// briefly. Relationship visibility, not list membership, decides what a
// reader sees, so aborted inserts may leave permanently-invisible entries
// behind without harm.
type node struct {
	chain    mvto.VersionChain
	label    uint32
	versions []*objVersion // newest last
	out      []RelID
	in       []RelID
}

// rel is a relationship record: fixed identity fields plus an MVTO version
// chain carrying existence, properties and the weight — the edge value the
// structural replica mirrors (§5.1).
type rel struct {
	chain    mvto.VersionChain
	label    uint32
	src, dst NodeID
	versions []*objVersion
}

// Store is the main property graph.
type Store struct {
	oracle *mvto.Oracle
	dict   *Dictionary
	nodes  *storage.ChunkedVector[node]
	rels   *storage.ChunkedVector[rel]

	// undirected switches the store to the paper's undirected mode: each
	// relationship is incident to both endpoints (one entry in each
	// adjacency list) and committing transactions append two deltas per
	// relationship, one mapped to each endpoint (§5.1).
	undirected bool

	labels *labelIndex

	oplog   opLoggers
	logging atomic.Bool

	// commitGate lets a checkpoint exclude the logCommit→publish span of
	// every committing transaction: commits hold it shared, the checkpoint
	// barrier holds it exclusively, so no transaction can be logged to the
	// old WAL but publish after the snapshot was taken (which would lose it
	// from durable history).
	commitGate sync.RWMutex

	capMu     sync.RWMutex
	capturers []delta.Capturer

	liveNodes atomic.Int64
	liveRels  atomic.Int64
}

// NewStore returns an empty directed graph store (the paper's default:
// "for the remainder of this paper, we consider only directed graphs").
func NewStore() *Store {
	return &Store{
		oracle: mvto.NewOracle(),
		dict:   NewDictionary(),
		nodes:  storage.NewChunkedVector[node](0),
		rels:   storage.NewChunkedVector[rel](0),
		labels: newLabelIndex(),
	}
}

// NewUndirectedStore returns an empty undirected graph store (§5.1's
// two-delta encoding). The structural replica of an undirected graph is
// symmetric: every edge appears in both endpoints' rows.
func NewUndirectedStore() *Store {
	s := NewStore()
	s.undirected = true
	return s
}

// Undirected reports the store's edge orientation mode.
func (s *Store) Undirected() bool { return s.undirected }

// other returns the endpoint of r opposite to id (valid in undirected mode,
// where adjacency entries carry edges of either orientation).
func (r *rel) other(id NodeID) NodeID {
	if r.src == id {
		return r.dst
	}
	return r.src
}

// Oracle exposes the timestamp oracle (shared with delta stores so delta
// visibility uses the same clock, §5.3).
func (s *Store) Oracle() *mvto.Oracle { return s.oracle }

// Dict exposes the label/key dictionary.
func (s *Store) Dict() *Dictionary { return s.dict }

// AddCapturer registers a delta capturer to be invoked from every commit
// (§4.2 update storage). Registration is not synchronized with in-flight
// commits; callers register during setup.
func (s *Store) AddCapturer(c delta.Capturer) {
	s.capMu.Lock()
	defer s.capMu.Unlock()
	s.capturers = append(s.capturers, c)
}

func (s *Store) capture(d *delta.TxDelta) {
	if d.Empty() {
		return
	}
	s.capMu.RLock()
	caps := s.capturers
	s.capMu.RUnlock()
	for _, c := range caps {
		c.Capture(d)
	}
}

// NumNodeSlots reports the size of the node ID space (allocated slots,
// including deleted and aborted ones). CSR builds iterate this range. It is
// bounded by the backed prefix: a slot reserved by a concurrent AddNode
// whose chunk is not allocated yet is not counted.
func (s *Store) NumNodeSlots() uint64 { return s.nodes.Backed() }

// NumRelSlots reports the allocated relationship slots, bounded like
// NumNodeSlots.
func (s *Store) NumRelSlots() uint64 { return s.rels.Backed() }

// LiveNodes reports committed, non-deleted node count.
func (s *Store) LiveNodes() int64 { return s.liveNodes.Load() }

// LiveRels reports committed, non-deleted relationship count.
func (s *Store) LiveRels() int64 { return s.liveRels.Load() }

func (s *Store) node(id NodeID) (*node, error) {
	if n := s.nodes.Backed(); id >= n {
		return nil, fmt.Errorf("graph: node %d out of range %d", id, n)
	}
	return s.nodes.At(id), nil
}

func (s *Store) rel(id RelID) (*rel, error) {
	if n := s.rels.Backed(); id >= n {
		return nil, fmt.Errorf("graph: relationship %d out of range %d", id, n)
	}
	return s.rels.At(id), nil
}

// visibleVersion walks the chain newest-first and returns the version
// visible to ts, or nil. It snapshots the version slice under the chain
// lock; visibility checks themselves are atomic.
func visibleVersion(chain *mvto.VersionChain, versions *[]*objVersion, ts mvto.TS) *objVersion {
	chain.Lock()
	vs := *versions
	chain.Unlock()
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].meta.VisibleTo(ts) {
			return vs[i]
		}
	}
	return nil
}

func (n *node) visible(ts mvto.TS) *objVersion {
	return visibleVersion(&n.chain, &n.versions, ts)
}

func (r *rel) visible(ts mvto.TS) *objVersion {
	return visibleVersion(&r.chain, &r.versions, ts)
}

// newest returns the newest version of the relationship (which reflects
// its latest committed or in-flight state), or nil if it has none.
func (r *rel) newest() *objVersion {
	r.chain.Lock()
	vs := r.versions
	r.chain.Unlock()
	if len(vs) == 0 {
		return nil
	}
	return vs[len(vs)-1]
}

func (n *node) appendVersion(v *objVersion) {
	n.chain.Lock()
	n.versions = append(n.versions, v)
	n.chain.Unlock()
}

func (r *rel) appendVersion(v *objVersion) {
	r.chain.Lock()
	r.versions = append(r.versions, v)
	r.chain.Unlock()
}

func (n *node) snapshotOut() []RelID {
	n.chain.Lock()
	out := n.out
	n.chain.Unlock()
	return out
}

func (n *node) snapshotIn() []RelID {
	n.chain.Lock()
	in := n.in
	n.chain.Unlock()
	return in
}

// NodeExistsAt reports whether node id is visible at ts, without recording
// a read (snapshot read path, used by replica builds and DELTA_I capture).
func (s *Store) NodeExistsAt(id NodeID, ts mvto.TS) bool {
	n, err := s.node(id)
	if err != nil {
		return false
	}
	return n.visible(ts) != nil
}

// NodeLabelAt returns the label of node id at ts.
func (s *Store) NodeLabelAt(id NodeID, ts mvto.TS) (string, bool) {
	n, err := s.node(id)
	if err != nil {
		return "", false
	}
	if n.visible(ts) == nil {
		return "", false
	}
	return s.dict.String(n.label), true
}

// OutEdgesAt returns the outgoing edges of node id visible at ts, sorted by
// destination, or nil if the node itself is not visible. This is the
// snapshot read used to build CSRs and by DELTA_I's adjacency capture; it
// does not record reads (it belongs to replica maintenance, not to a
// transactional reader).
func (s *Store) OutEdgesAt(id NodeID, ts mvto.TS) []delta.Edge {
	n, err := s.node(id)
	if err != nil || n.visible(ts) == nil {
		return nil
	}
	outIDs := n.snapshotOut()
	edges := make([]delta.Edge, 0, len(outIDs))
	for _, rid := range outIDs {
		r := s.rels.At(rid)
		if rv := r.visible(ts); rv != nil {
			dst := r.dst
			if s.undirected {
				dst = r.other(id)
			}
			edges = append(edges, delta.Edge{Dst: dst, W: rv.weight})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].Dst < edges[j].Dst })
	return edges
}

// InEdgesAt returns (src, weight) pairs of incoming edges visible at ts.
// In undirected mode edges have no orientation and InEdgesAt equals
// OutEdgesAt.
func (s *Store) InEdgesAt(id NodeID, ts mvto.TS) []delta.Edge {
	if s.undirected {
		return s.OutEdgesAt(id, ts)
	}
	n, err := s.node(id)
	if err != nil || n.visible(ts) == nil {
		return nil
	}
	inIDs := n.snapshotIn()
	edges := make([]delta.Edge, 0, len(inIDs))
	for _, rid := range inIDs {
		r := s.rels.At(rid)
		if rv := r.visible(ts); rv != nil {
			edges = append(edges, delta.Edge{Dst: r.src, W: rv.weight})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].Dst < edges[j].Dst })
	return edges
}

// DegreeAt reports the visible out-degree of node id at ts.
func (s *Store) DegreeAt(id NodeID, ts mvto.TS) int {
	n, err := s.node(id)
	if err != nil || n.visible(ts) == nil {
		return 0
	}
	deg := 0
	for _, rid := range n.snapshotOut() {
		if s.rels.At(rid).visible(ts) != nil {
			deg++
		}
	}
	return deg
}

// ForEachNodeAt calls fn for every node visible at ts, in ID order.
func (s *Store) ForEachNodeAt(ts mvto.TS, fn func(id NodeID, label uint32) bool) {
	s.nodes.ForEach(s.nodes.Backed(), func(i uint64, n *node) bool {
		if n.visible(ts) == nil {
			return true
		}
		return fn(i, n.label)
	})
}

var _ delta.AdjacencySource = (*Store)(nil)
