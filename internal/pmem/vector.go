package pmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Vector is a persistent, chunked, append-only vector of fixed-size
// elements — the persistent counterpart of storage.ChunkedVector, used by
// the PMem-backed delta store (§6.5).
//
// Layout in the pool: a metadata block holding element size, chunk
// geometry, the durable length, the number of allocated chunks, and a
// directory of chunk offsets. Chunks are allocated from the pool on demand.
// Crash consistency: element data is persisted before the durable length
// advances past it (CommitLen), so recovery sees a prefix of fully written
// elements.
type Vector struct {
	pool *Pool
	off  uint64 // metadata block offset

	elemSize   int
	chunkElems int
	maxChunks  int

	cursor  atomic.Uint64 // volatile reservation cursor (elements)
	nChunks atomic.Uint64
	growMu  sync.Mutex
}

// Metadata block field offsets.
const (
	vecElemSize   = 0
	vecChunkElems = 8
	vecLen        = 16
	vecNChunks    = 24
	vecMaxChunks  = 32
	vecDirStart   = 40
)

// ErrVectorFull reports chunk-directory exhaustion.
var ErrVectorFull = errors.New("pmem: vector chunk directory full")

// NewVector allocates a fresh persistent vector in pool. chunkElems is the
// number of elements per chunk; maxChunks bounds total capacity.
func NewVector(pool *Pool, elemSize, chunkElems, maxChunks int) (*Vector, error) {
	if elemSize <= 0 || chunkElems <= 0 || maxChunks <= 0 {
		return nil, fmt.Errorf("pmem: NewVector(%d, %d, %d): non-positive geometry",
			elemSize, chunkElems, maxChunks)
	}
	metaSize := vecDirStart + 8*maxChunks
	off, err := pool.Alloc(metaSize)
	if err != nil {
		return nil, err
	}
	meta := pool.View(off, metaSize)
	for i := range meta {
		meta[i] = 0
	}
	if err := pool.PutUint64(off+vecElemSize, uint64(elemSize)); err != nil {
		return nil, err
	}
	if err := pool.PutUint64(off+vecChunkElems, uint64(chunkElems)); err != nil {
		return nil, err
	}
	if err := pool.PutUint64(off+vecMaxChunks, uint64(maxChunks)); err != nil {
		return nil, err
	}
	if err := pool.Persist(off, metaSize); err != nil {
		return nil, err
	}
	return &Vector{
		pool: pool, off: off,
		elemSize: elemSize, chunkElems: chunkElems, maxChunks: maxChunks,
	}, nil
}

// OpenVector recovers a vector from its metadata block at off.
func OpenVector(pool *Pool, off uint64) (*Vector, error) {
	elemSize := int(pool.GetUint64(off + vecElemSize))
	chunkElems := int(pool.GetUint64(off + vecChunkElems))
	maxChunks := int(pool.GetUint64(off + vecMaxChunks))
	if elemSize <= 0 || chunkElems <= 0 || maxChunks <= 0 {
		return nil, fmt.Errorf("%w: vector metadata at %d", ErrBadPool, off)
	}
	v := &Vector{
		pool: pool, off: off,
		elemSize: elemSize, chunkElems: chunkElems, maxChunks: maxChunks,
	}
	v.cursor.Store(pool.GetUint64(off + vecLen))
	v.nChunks.Store(pool.GetUint64(off + vecNChunks))
	return v, nil
}

// Off reports the metadata block offset, for storing in root objects.
func (v *Vector) Off() uint64 { return v.off }

// ElemSize reports the element size in bytes.
func (v *Vector) ElemSize() int { return v.elemSize }

// Len reports the volatile length (reserved elements).
func (v *Vector) Len() uint64 { return v.cursor.Load() }

// DurableLen reports the persisted length visible after a crash.
func (v *Vector) DurableLen() uint64 { return v.pool.GetUint64(v.off + vecLen) }

// Reserve reserves n consecutive element slots, allocating chunks as
// needed, and returns the first index.
func (v *Vector) Reserve(n int) (uint64, error) {
	start := v.cursor.Add(uint64(n)) - uint64(n)
	if err := v.ensure(start + uint64(n)); err != nil {
		v.cursor.Add(^uint64(n - 1)) // roll back the reservation
		return 0, err
	}
	return start, nil
}

func (v *Vector) ensure(endElems uint64) error {
	if endElems == 0 {
		return nil
	}
	need := (endElems + uint64(v.chunkElems) - 1) / uint64(v.chunkElems)
	if v.nChunks.Load() >= need {
		return nil
	}
	v.growMu.Lock()
	defer v.growMu.Unlock()
	cur := v.nChunks.Load()
	for cur < need {
		if int(cur) >= v.maxChunks {
			return fmt.Errorf("%w: %d chunks", ErrVectorFull, v.maxChunks)
		}
		chunkOff, err := v.pool.Alloc(v.chunkElems * v.elemSize)
		if err != nil {
			return err
		}
		dirOff := v.off + vecDirStart + 8*cur
		if err := v.pool.PutUint64(dirOff, chunkOff); err != nil {
			return err
		}
		cur++
		if err := v.pool.PutUint64(v.off+vecNChunks, cur); err != nil {
			return err
		}
		v.nChunks.Store(cur)
	}
	return nil
}

func (v *Vector) elemOff(i uint64) uint64 {
	ci := i / uint64(v.chunkElems)
	if ci >= v.nChunks.Load() {
		panic(fmt.Sprintf("pmem: vector index %d beyond %d chunks", i, v.nChunks.Load()))
	}
	chunkOff := v.pool.GetUint64(v.off + vecDirStart + 8*ci)
	return chunkOff + (i%uint64(v.chunkElems))*uint64(v.elemSize)
}

// EnsureLen makes indexes [0, n) addressable and advances the volatile
// cursor to at least n, allocating chunks as needed. It lets a caller that
// reserved indexes elsewhere (e.g. in a volatile twin structure) mirror
// writes at the same indexes.
func (v *Vector) EnsureLen(n uint64) error {
	if err := v.ensure(n); err != nil {
		return err
	}
	for {
		cur := v.cursor.Load()
		if cur >= n || v.cursor.CompareAndSwap(cur, n) {
			return nil
		}
	}
}

// PersistElem re-persists element i (used after in-place mutation of a
// Read view, e.g. flipping a validity flag).
func (v *Vector) PersistElem(i uint64) error {
	return v.pool.Persist(v.elemOff(i), v.elemSize)
}

// Write stores element bytes at index i and persists them. len(b) must be
// the element size.
func (v *Vector) Write(i uint64, b []byte) error {
	if len(b) != v.elemSize {
		return fmt.Errorf("pmem: Write: element is %d bytes, want %d", len(b), v.elemSize)
	}
	return v.pool.Store(v.elemOff(i), b)
}

// Read returns a zero-copy view of element i.
func (v *Vector) Read(i uint64) []byte {
	return v.pool.View(v.elemOff(i), v.elemSize)
}

// PutUint64 stores a uint64 element at index i (element size must be 8).
func (v *Vector) PutUint64(i uint64, x uint64) error {
	return v.pool.PutUint64(v.elemOff(i), x)
}

// GetUint64 loads a uint64 element at index i.
func (v *Vector) GetUint64(i uint64) uint64 {
	return v.pool.GetUint64(v.elemOff(i))
}

// PutFloat64 stores a float64 element at index i (element size must be 8).
func (v *Vector) PutFloat64(i uint64, x float64) error {
	return v.pool.PutFloat64(v.elemOff(i), x)
}

// GetFloat64 loads a float64 element at index i.
func (v *Vector) GetFloat64(i uint64) float64 {
	return v.pool.GetFloat64(v.elemOff(i))
}

// CommitLen advances the durable length to the current cursor. Callers
// persist element data first; the length advance is the publication point.
// The cursor covers every index reserved so far, so callers with concurrent
// writers must exclude them until their elements are persisted.
func (v *Vector) CommitLen() error {
	cur := v.cursor.Load()
	v.growMu.Lock()
	defer v.growMu.Unlock()
	if v.pool.GetUint64(v.off+vecLen) >= cur {
		return nil
	}
	return v.pool.PutUint64(v.off+vecLen, cur)
}

// Reset truncates the vector to zero length (chunks are kept for reuse) and
// persists the truncation. Callers quiesce writers first.
func (v *Vector) Reset() error {
	v.growMu.Lock()
	defer v.growMu.Unlock()
	v.cursor.Store(0)
	return v.pool.PutUint64(v.off+vecLen, 0)
}

// MemBytes reports the pool bytes consumed by allocated chunks.
func (v *Vector) MemBytes() uint64 {
	return v.nChunks.Load() * uint64(v.chunkElems*v.elemSize)
}
