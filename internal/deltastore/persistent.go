package deltastore

import (
	"encoding/binary"
	"fmt"

	"h2tap/internal/delta"
	"h2tap/internal/mvto"
	"h2tap/internal/pmem"
)

// Persistent delta store (§6.5): the same DELTA_FE structure with a PMem
// twin. The volatile structures keep serving appends and scans at DRAM
// speed; every append writes through to persistent vectors (charging the
// simulated media cost that Fig 11 measures), and recovery rebuilds the
// volatile twin from the persistent image — "such a persistent delta store
// instantly continues to serve its purpose upon recovery".
//
// Crash consistency: array payloads and record bytes persist before the
// vector lengths advance (pmem.Vector.CommitLen), so recovery sees whole
// transactions' records or none of the tail. Mirrored captures run one at a
// time (Store.mirrorMu): CommitLen publishes the shared cursor, which would
// cover a concurrent capture's reserved but unwritten records.

// persistent record layout (48 bytes, matching RecordSize):
//
//	0  ts       u64
//	8  node     u64
//	16 insOff   u64
//	24 delOff   u64
//	32 insCnt   u32
//	36 delCnt   u32
//	40 state    u32 (same bits as the volatile state word)
//	44 pad      u32
const (
	perRecTS     = 0
	perRecNode   = 8
	perRecInsOff = 16
	perRecDelOff = 24
	perRecInsCnt = 32
	perRecDelCnt = 36
	perRecState  = 40
)

// Root block layout: offsets of the four vectors plus the delta-mode flag
// and threshold.
const (
	rootRecs      = 0
	rootIns       = 8
	rootW         = 16
	rootDels      = 24
	rootMode      = 32
	rootThreshold = 40
	rootSize      = 48
)

// persistence is the PMem twin of a Store.
type persistence struct {
	pool    *pmem.Pool
	rootOff uint64
	recs    *pmem.Vector
	ins     *pmem.Vector
	w       *pmem.Vector
	dels    *pmem.Vector
}

// Geometry of the persistent vectors. maxChunks bounds capacity at
// chunkElems*maxChunks elements per vector.
const (
	perChunkElems = 1 << 14
	perMaxChunks  = 1 << 12
)

// NewPersistent creates a PMem-backed delta store in pool. The pool's root
// is set to the store's root block so OpenPersistent can find it.
func NewPersistent(pool *pmem.Pool) (*Store, error) {
	rootOff, err := pool.Alloc(rootSize)
	if err != nil {
		return nil, fmt.Errorf("deltastore: alloc root: %w", err)
	}
	p := &persistence{pool: pool, rootOff: rootOff}
	if p.recs, err = pmem.NewVector(pool, RecordSize, perChunkElems, perMaxChunks); err != nil {
		return nil, err
	}
	if p.ins, err = pmem.NewVector(pool, 8, perChunkElems, perMaxChunks); err != nil {
		return nil, err
	}
	if p.w, err = pmem.NewVector(pool, 8, perChunkElems, perMaxChunks); err != nil {
		return nil, err
	}
	if p.dels, err = pmem.NewVector(pool, 8, perChunkElems, perMaxChunks); err != nil {
		return nil, err
	}
	for off, v := range map[uint64]uint64{
		rootRecs: p.recs.Off(), rootIns: p.ins.Off(),
		rootW: p.w.Off(), rootDels: p.dels.Off(),
	} {
		if err := pool.PutUint64(rootOff+off, v); err != nil {
			return nil, err
		}
	}
	if err := pool.PutUint64(rootOff+rootMode, 1); err != nil {
		return nil, err
	}
	if err := pool.SetRoot(rootOff, rootSize); err != nil {
		return nil, err
	}

	s := NewVolatile()
	s.persist = p
	return s, nil
}

// OpenPersistent recovers a PMem-backed delta store from pool: the
// persistent vectors are located via the pool root and the volatile twin is
// rebuilt by replaying every durable record.
func OpenPersistent(pool *pmem.Pool) (*Store, error) {
	rootOff, rootLen := pool.Root()
	if rootLen < rootSize {
		return nil, fmt.Errorf("deltastore: pool root %d bytes, want %d", rootLen, rootSize)
	}
	p := &persistence{pool: pool, rootOff: rootOff}
	var err error
	if p.recs, err = pmem.OpenVector(pool, pool.GetUint64(rootOff+rootRecs)); err != nil {
		return nil, err
	}
	if p.ins, err = pmem.OpenVector(pool, pool.GetUint64(rootOff+rootIns)); err != nil {
		return nil, err
	}
	if p.w, err = pmem.OpenVector(pool, pool.GetUint64(rootOff+rootW)); err != nil {
		return nil, err
	}
	if p.dels, err = pmem.OpenVector(pool, pool.GetUint64(rootOff+rootDels)); err != nil {
		return nil, err
	}

	s := NewVolatile()
	s.persist = p
	s.deltaMode.Store(pool.GetUint64(rootOff+rootMode) != 0)
	s.threshold.Store(pool.GetUint64(rootOff + rootThreshold))

	// Rebuild the volatile twin from the durable prefix.
	nRecs := p.recs.DurableLen()
	nIns := p.ins.DurableLen()
	nDels := p.dels.DurableLen()
	s.inserts.Reserve(int(nIns))
	s.weights.Reserve(int(nIns))
	s.deletes.Reserve(int(nDels))
	for i := uint64(0); i < nIns; i++ {
		*s.inserts.At(i) = p.ins.GetUint64(i)
		*s.weights.At(i) = p.w.GetFloat64(i)
	}
	for i := uint64(0); i < nDels; i++ {
		*s.deletes.At(i) = p.dels.GetUint64(i)
	}
	s.records.Reserve(int(nRecs))
	for i := uint64(0); i < nRecs; i++ {
		b := p.recs.Read(i)
		rec := s.records.At(i)
		rec.ts = mvto.TS(binary.LittleEndian.Uint64(b[perRecTS:]))
		rec.node = binary.LittleEndian.Uint64(b[perRecNode:])
		rec.insOff = binary.LittleEndian.Uint64(b[perRecInsOff:])
		rec.delOff = binary.LittleEndian.Uint64(b[perRecDelOff:])
		rec.insCnt = binary.LittleEndian.Uint32(b[perRecInsCnt:])
		rec.delCnt = binary.LittleEndian.Uint32(b[perRecDelCnt:])
		rec.state.Store(binary.LittleEndian.Uint32(b[perRecState:]))
	}
	return s, nil
}

// Persistent reports whether the store has a PMem twin.
func (s *Store) Persistent() bool { return s.persist != nil }

// mirror writes one record and its array payloads through to PMem at the
// same indexes the volatile twin used. On the first error it stops: the
// durable lengths have not advanced, so the durable image still ends at the
// previous transaction boundary — a consistent prefix.
func (p *persistence) mirror(i uint64, rec *record, state uint32, nd *delta.NodeDelta) error {
	insEnd := rec.insOff + uint64(rec.insCnt)
	delEnd := rec.delOff + uint64(rec.delCnt)
	if err := p.ins.EnsureLen(insEnd); err != nil {
		return err
	}
	if err := p.w.EnsureLen(insEnd); err != nil {
		return err
	}
	if err := p.dels.EnsureLen(delEnd); err != nil {
		return err
	}
	if err := p.recs.EnsureLen(i + 1); err != nil {
		return err
	}

	for j := range nd.Ins {
		if err := p.ins.PutUint64(rec.insOff+uint64(j), nd.Ins[j].Dst); err != nil {
			return err
		}
		if err := p.w.PutFloat64(rec.insOff+uint64(j), nd.Ins[j].W); err != nil {
			return err
		}
	}
	for j := range nd.Del {
		if err := p.dels.PutUint64(rec.delOff+uint64(j), nd.Del[j]); err != nil {
			return err
		}
	}

	var b [RecordSize]byte
	binary.LittleEndian.PutUint64(b[perRecTS:], uint64(rec.ts))
	binary.LittleEndian.PutUint64(b[perRecNode:], rec.node)
	binary.LittleEndian.PutUint64(b[perRecInsOff:], rec.insOff)
	binary.LittleEndian.PutUint64(b[perRecDelOff:], rec.delOff)
	binary.LittleEndian.PutUint32(b[perRecInsCnt:], rec.insCnt)
	binary.LittleEndian.PutUint32(b[perRecDelCnt:], rec.delCnt)
	binary.LittleEndian.PutUint32(b[perRecState:], state)
	return p.recs.Write(i, b[:])
}

// commitLens publishes the durable lengths after a transaction's records
// and payloads are persisted. Order matters for recovery: the record length
// (recs) goes last, so any durable record's payload ranges are covered by
// already-durable array data.
func (p *persistence) commitLens() error {
	if err := p.ins.CommitLen(); err != nil {
		return err
	}
	if err := p.w.CommitLen(); err != nil {
		return err
	}
	if err := p.dels.CommitLen(); err != nil {
		return err
	}
	return p.recs.CommitLen()
}

// invalidate persists the cleared valid bit of record i (so a recovered
// store does not re-propagate consumed deltas).
func (p *persistence) invalidate(i uint64) error {
	b := p.recs.Read(i)
	st := binary.LittleEndian.Uint32(b[perRecState:])
	binary.LittleEndian.PutUint32(b[perRecState:], st&^stValid)
	return p.recs.PersistElem(i)
}

func (p *persistence) setMode(on bool) error {
	var v uint64
	if on {
		v = 1
	}
	return p.pool.PutUint64(p.rootOff+rootMode, v)
}

func (p *persistence) setThreshold(n uint64) error {
	return p.pool.PutUint64(p.rootOff+rootThreshold, n)
}

func (p *persistence) reset() error {
	if err := p.recs.Reset(); err != nil {
		return err
	}
	if err := p.ins.Reset(); err != nil {
		return err
	}
	if err := p.w.Reset(); err != nil {
		return err
	}
	return p.dels.Reset()
}

// Validate checks the durable image's internal consistency — the invariant
// the crash harness asserts after every injected crash: every durable
// record is fully published and its payload ranges lie inside the durable
// (or at least chunk-allocated and written-before-length, see commitLens)
// array prefixes.
func (s *Store) Validate() error {
	if s.persist == nil {
		return nil
	}
	p := s.persist
	nRec := p.recs.DurableLen()
	nIns := p.ins.DurableLen()
	nW := p.w.DurableLen()
	nDel := p.dels.DurableLen()
	// commitLens publishes ins before w: at any crash the weight length may
	// lag the insert length, never lead it.
	if nW > nIns {
		return fmt.Errorf("deltastore: durable weights %d exceed inserts %d", nW, nIns)
	}
	for i := uint64(0); i < nRec; i++ {
		b := p.recs.Read(i)
		state := binary.LittleEndian.Uint32(b[perRecState:])
		if state&stReady == 0 {
			return fmt.Errorf("deltastore: durable record %d not published (state %#x)", i, state)
		}
		insOff := binary.LittleEndian.Uint64(b[perRecInsOff:])
		delOff := binary.LittleEndian.Uint64(b[perRecDelOff:])
		insCnt := uint64(binary.LittleEndian.Uint32(b[perRecInsCnt:]))
		delCnt := uint64(binary.LittleEndian.Uint32(b[perRecDelCnt:]))
		if insOff+insCnt > nIns {
			return fmt.Errorf("deltastore: record %d inserts [%d,%d) beyond durable %d",
				i, insOff, insOff+insCnt, nIns)
		}
		if insOff+insCnt > nW {
			return fmt.Errorf("deltastore: record %d weights [%d,%d) beyond durable %d",
				i, insOff, insOff+insCnt, nW)
		}
		if delOff+delCnt > nDel {
			return fmt.Errorf("deltastore: record %d deletes [%d,%d) beyond durable %d",
				i, delOff, delOff+delCnt, nDel)
		}
	}
	return nil
}
