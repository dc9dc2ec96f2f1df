// Package storage provides the low-level append-only storage primitives
// shared by the main graph tables and the delta store: chunked vectors that
// grow without relocating existing elements, supporting concurrent
// reservation-based appends and lock-free reads.
//
// The delta store's append-only design (paper §5.1) depends on two
// properties these vectors guarantee: (1) an element, once written, never
// moves, so offsets recorded in delta records stay valid forever, and
// (2) appends from concurrent transactions reserve disjoint index ranges
// with a single atomic add, so there is no contention between committing
// transactions.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultChunkShift sizes chunks at 1<<16 elements, large enough to keep the
// chunk directory tiny for multi-million-element stores and small enough
// that sparse stores do not over-allocate.
const DefaultChunkShift = 16

// ChunkedVector is an append-only vector of T stored as fixed-size chunks.
// Elements never move once written. Appends are safe from multiple
// goroutines; reads are safe concurrently with appends provided the reader
// only accesses indexes below a length it observed via Len (the caller is
// responsible for ordering, which the delta store does with per-record
// ready flags).
type ChunkedVector[T any] struct {
	shift uint
	mask  uint64

	// next is the reservation cursor: indexes below next are reserved,
	// though not necessarily written yet.
	next atomic.Uint64

	// dir is the chunk directory. It is replaced wholesale (copy-on-grow)
	// under growMu, and loaded atomically by readers.
	dir    atomic.Pointer[[]*[]T]
	growMu sync.Mutex
}

// NewChunkedVector returns a vector with chunks of 1<<shift elements.
// A shift of 0 selects DefaultChunkShift.
func NewChunkedVector[T any](shift uint) *ChunkedVector[T] {
	if shift == 0 {
		shift = DefaultChunkShift
	}
	v := &ChunkedVector[T]{shift: shift, mask: (1 << shift) - 1}
	empty := make([]*[]T, 0)
	v.dir.Store(&empty)
	return v
}

// ChunkSize reports the number of elements per chunk.
func (v *ChunkedVector[T]) ChunkSize() int { return 1 << v.shift }

// Len reports the number of reserved elements. Elements below Len may still
// be in the process of being written by a concurrent appender; callers that
// need happens-before ordering must layer their own publication protocol
// (e.g. the delta store's ready flag) on top.
func (v *ChunkedVector[T]) Len() uint64 { return v.next.Load() }

// Backed reports the length of the prefix backed by allocated chunks: Len,
// clamped below any index whose Reserve has advanced the cursor but not yet
// grown the chunk directory. A scan racing appenders bounds itself by
// Backed, not Len; the unbacked tail holds nothing written yet.
func (v *ChunkedVector[T]) Backed() uint64 {
	n := v.next.Load()
	if c := uint64(len(*v.dir.Load())) << v.shift; c < n {
		return c
	}
	return n
}

// Reserve atomically reserves n consecutive indexes and returns the first.
// The reserved slots are backed by allocated chunks on return.
func (v *ChunkedVector[T]) Reserve(n int) uint64 {
	if n < 0 {
		panic(fmt.Sprintf("storage: Reserve(%d): negative count", n))
	}
	start := v.next.Add(uint64(n)) - uint64(n)
	v.ensure(start + uint64(n))
	return start
}

// ensure makes sure chunks covering indexes [0, end) exist.
func (v *ChunkedVector[T]) ensure(end uint64) {
	if end == 0 {
		return
	}
	needChunks := int((end-1)>>v.shift) + 1
	if dir := v.dir.Load(); len(*dir) >= needChunks {
		return
	}
	v.growMu.Lock()
	defer v.growMu.Unlock()
	dir := v.dir.Load()
	if len(*dir) >= needChunks {
		return
	}
	grown := make([]*[]T, needChunks)
	copy(grown, *dir)
	for i := len(*dir); i < needChunks; i++ {
		chunk := make([]T, 1<<v.shift)
		grown[i] = &chunk
	}
	v.dir.Store(&grown)
}

// EnsureLen reserves indexes up to at least n (for callers that place
// elements at recorded positions, e.g. WAL replay).
func (v *ChunkedVector[T]) EnsureLen(n uint64) {
	v.ensure(n)
	for {
		cur := v.next.Load()
		if cur >= n || v.next.CompareAndSwap(cur, n) {
			return
		}
	}
}

// At returns a pointer to element i. It panics if i has not been reserved.
func (v *ChunkedVector[T]) At(i uint64) *T {
	dir := v.dir.Load()
	ci := i >> v.shift
	if ci >= uint64(len(*dir)) {
		panic(fmt.Sprintf("storage: At(%d): index beyond reserved length %d", i, v.next.Load()))
	}
	return &(*(*dir)[ci])[i&v.mask]
}

// Append writes x to a freshly reserved slot and returns its index.
func (v *ChunkedVector[T]) Append(x T) uint64 {
	i := v.Reserve(1)
	*v.At(i) = x
	return i
}

// AppendSlice writes all of xs contiguously and returns the starting index.
// The elements occupy consecutive logical indexes even when the range spans
// chunk boundaries.
func (v *ChunkedVector[T]) AppendSlice(xs []T) uint64 {
	if len(xs) == 0 {
		return v.next.Load()
	}
	start := v.Reserve(len(xs))
	v.CopyIn(start, xs)
	return start
}

// CopyIn writes xs to reserved indexes starting at start.
func (v *ChunkedVector[T]) CopyIn(start uint64, xs []T) {
	dir := v.dir.Load()
	i := start
	for len(xs) > 0 {
		chunk := *(*dir)[i>>v.shift]
		off := i & v.mask
		n := copy(chunk[off:], xs)
		xs = xs[n:]
		i += uint64(n)
	}
}

// CopyOut reads n elements starting at start into a new slice.
func (v *ChunkedVector[T]) CopyOut(start uint64, n int) []T {
	out := make([]T, n)
	v.ReadInto(start, out)
	return out
}

// ReadInto fills dst with elements starting at start.
func (v *ChunkedVector[T]) ReadInto(start uint64, dst []T) {
	dir := v.dir.Load()
	i := start
	for len(dst) > 0 {
		ci := i >> v.shift
		if ci >= uint64(len(*dir)) {
			panic(fmt.Sprintf("storage: ReadInto(%d): index beyond reserved length %d", i, v.next.Load()))
		}
		chunk := *(*dir)[ci]
		off := i & v.mask
		n := copy(dst, chunk[off:])
		dst = dst[n:]
		i += uint64(n)
	}
}

// ForEach calls fn for each element index in [0, limit). A limit beyond Len
// is clamped. fn returning false stops the walk.
func (v *ChunkedVector[T]) ForEach(limit uint64, fn func(i uint64, x *T) bool) {
	v.ForEachFrom(0, limit, fn)
}

// ForEachFrom calls fn for each element index in [start, limit), clamped to
// Len. fn returning false stops the walk.
func (v *ChunkedVector[T]) ForEachFrom(start, limit uint64, fn func(i uint64, x *T) bool) {
	if l := v.Len(); limit > l {
		limit = l
	}
	dir := v.dir.Load()
	for i := start; i < limit; {
		chunk := *(*dir)[i>>v.shift]
		off := i & v.mask
		end := uint64(len(chunk))
		if rem := limit - i + off; rem < end {
			end = rem
		}
		for j := off; j < end; j++ {
			if !fn(i, &chunk[j]) {
				return
			}
			i++
		}
	}
}

// Reset drops all elements and chunks. Not safe concurrently with any other
// operation; callers quiesce writers first (the delta store does this when
// the cost model clears it, paper §6.4).
func (v *ChunkedVector[T]) Reset() {
	v.growMu.Lock()
	defer v.growMu.Unlock()
	empty := make([]*[]T, 0)
	v.dir.Store(&empty)
	v.next.Store(0)
}

// MemBytes estimates the heap footprint of allocated chunks, given the size
// of one element in bytes. It counts whole chunks, matching how the store
// actually reserves memory.
func (v *ChunkedVector[T]) MemBytes(elemSize uintptr) uint64 {
	dir := v.dir.Load()
	return uint64(len(*dir)) * uint64(uintptr(1<<v.shift)*elemSize)
}
