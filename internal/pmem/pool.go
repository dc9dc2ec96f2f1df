// Package pmem simulates byte-addressable persistent memory (the paper's
// Intel Optane DCPMM in AppDirect mode, accessed via a DAX-mounted ext4
// filesystem, §6.1).
//
// A Pool is a file-backed memory region. Stores go to an in-memory image
// and are made durable through explicit Persist calls (the analogue of
// PMDK's flush+fence), which write through to the backing file and charge
// simulated media latency from a sim.MediaModel. Recovery re-opens the file
// and validates the header, after which persistent data structures (see
// Vector) rebuild their in-memory state from their persisted metadata —
// the "instant recovery" property §6.5 relies on.
//
// The simulation preserves the two properties the paper's Fig 11 measures:
// persisting costs a small constant factor over DRAM (flush latency and
// media bandwidth, charged per Persist), and contents survive crashes
// (write-through plus a crash-consistent allocation header).
package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"h2tap/internal/sim"
	"h2tap/internal/vfs"
)

const (
	magic         = 0x504d454d48325450 // "PMEMH2TP"
	formatVersion = 1
	headerSize    = 4096
	allocAlign    = 64 // cache-line alignment, the persist granularity
)

// Header field offsets within the pool's first page.
const (
	hdrMagic   = 0
	hdrVersion = 8
	hdrCursor  = 16 // allocation cursor (bytes from start of pool)
	hdrRootOff = 24 // offset of the application root object
	hdrRootLen = 32
)

// Pool errors.
var (
	// ErrBadPool reports a backing file that is not a pool or has an
	// incompatible format.
	ErrBadPool = errors.New("pmem: bad pool header")
	// ErrOutOfSpace reports pool capacity exhaustion.
	ErrOutOfSpace = errors.New("pmem: out of space")
)

// Pool is a simulated persistent-memory region.
type Pool struct {
	path  string
	f     vfs.File
	data  []byte
	media sim.MediaModel

	simNanos atomic.Int64

	mu sync.Mutex // guards allocation and root updates
}

// Create makes a new pool file of the given capacity on the real
// filesystem. An existing file at path is truncated.
func Create(path string, capacity int64, media sim.MediaModel) (*Pool, error) {
	return CreateOn(vfs.OS(), path, capacity, media)
}

// CreateOn is Create on an injectable filesystem, letting the fault
// harness crash individual write-throughs (the simulated persist fences).
func CreateOn(fsys vfs.FS, path string, capacity int64, media sim.MediaModel) (*Pool, error) {
	if capacity < headerSize {
		return nil, fmt.Errorf("pmem: capacity %d below header size %d", capacity, headerSize)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pmem: create pool: %w", err)
	}
	if err := f.Truncate(capacity); err != nil {
		f.Close()
		return nil, fmt.Errorf("pmem: size pool: %w", err)
	}
	p := &Pool{path: path, f: f, data: make([]byte, capacity), media: media}
	binary.LittleEndian.PutUint64(p.data[hdrMagic:], magic)
	binary.LittleEndian.PutUint64(p.data[hdrVersion:], formatVersion)
	binary.LittleEndian.PutUint64(p.data[hdrCursor:], headerSize)
	if err := p.writeThrough(0, headerSize); err != nil {
		f.Close()
		return nil, err
	}
	// The new file's directory entry is durable only once its directory is.
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("pmem: sync pool dir: %w", err)
	}
	return p, nil
}

// Open recovers an existing pool from its backing file on the real
// filesystem.
func Open(path string, media sim.MediaModel) (*Pool, error) {
	return OpenOn(vfs.OS(), path, media)
}

// OpenOn is Open on an injectable filesystem.
func OpenOn(fsys vfs.FS, path string, media sim.MediaModel) (*Pool, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pmem: open pool: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pmem: stat pool: %w", err)
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("pmem: read pool: %w", err)
	}
	p := &Pool{path: path, f: f, data: data, media: media}
	if len(data) < headerSize ||
		binary.LittleEndian.Uint64(data[hdrMagic:]) != magic ||
		binary.LittleEndian.Uint64(data[hdrVersion:]) != formatVersion {
		f.Close()
		return nil, ErrBadPool
	}
	return p, nil
}

// Close flushes and closes the backing file.
func (p *Pool) Close() error {
	if err := p.f.Sync(); err != nil {
		p.f.Close()
		return fmt.Errorf("pmem: sync on close: %w", err)
	}
	return p.f.Close()
}

// Capacity reports the pool size in bytes.
func (p *Pool) Capacity() int64 { return int64(len(p.data)) }

// Allocated reports the allocation cursor.
func (p *Pool) Allocated() uint64 {
	return binary.LittleEndian.Uint64(p.data[hdrCursor:])
}

// SimTime reports the accumulated simulated media time charged by Persist
// calls since the pool was opened or ResetSimTime was called.
func (p *Pool) SimTime() sim.Duration { return sim.Duration(p.simNanos.Load()) }

// ResetSimTime zeroes the simulated-time accumulator.
func (p *Pool) ResetSimTime() { p.simNanos.Store(0) }

// Alloc reserves n bytes, cache-line aligned, and returns the offset. The
// updated cursor is persisted so allocation survives crashes.
func (p *Pool) Alloc(n int) (uint64, error) {
	if n < 0 {
		return 0, fmt.Errorf("pmem: Alloc(%d): negative size", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := binary.LittleEndian.Uint64(p.data[hdrCursor:])
	aligned := (cur + allocAlign - 1) &^ (allocAlign - 1)
	if aligned+uint64(n) > uint64(len(p.data)) {
		return 0, fmt.Errorf("%w: need %d bytes, %d free", ErrOutOfSpace, n, uint64(len(p.data))-aligned)
	}
	binary.LittleEndian.PutUint64(p.data[hdrCursor:], aligned+uint64(n))
	if err := p.writeThrough(hdrCursor, 8); err != nil {
		return 0, err
	}
	p.chargePersist(8)
	return aligned, nil
}

// SetRoot records the application root object location (persisted), the
// anchor from which recovery finds everything else.
func (p *Pool) SetRoot(off uint64, n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	binary.LittleEndian.PutUint64(p.data[hdrRootOff:], off)
	binary.LittleEndian.PutUint64(p.data[hdrRootLen:], uint64(n))
	if err := p.writeThrough(hdrRootOff, 16); err != nil {
		return err
	}
	p.chargePersist(16)
	return nil
}

// Root reports the recorded root object location.
func (p *Pool) Root() (off uint64, n int) {
	return binary.LittleEndian.Uint64(p.data[hdrRootOff:]),
		int(binary.LittleEndian.Uint64(p.data[hdrRootLen:]))
}

// View returns a zero-copy view of n bytes at off. The slice aliases pool
// memory: writes to it must be followed by Persist to become durable.
func (p *Pool) View(off uint64, n int) []byte {
	if off+uint64(n) > uint64(len(p.data)) {
		panic(fmt.Sprintf("pmem: View(%d, %d) beyond capacity %d", off, n, len(p.data)))
	}
	return p.data[off : off+uint64(n) : off+uint64(n)]
}

// Store copies b into the pool at off and persists it — the analogue of
// pmem_memcpy_persist.
func (p *Pool) Store(off uint64, b []byte) error {
	copy(p.View(off, len(b)), b)
	return p.Persist(off, len(b))
}

// Persist makes the given range durable: write-through to the backing file
// plus simulated flush+fence cost.
func (p *Pool) Persist(off uint64, n int) error {
	if n == 0 {
		return nil
	}
	if err := p.writeThrough(off, n); err != nil {
		return err
	}
	p.chargePersist(n)
	return nil
}

func (p *Pool) chargePersist(n int) {
	p.simNanos.Add(int64(p.media.PersistCost(n)))
}

func (p *Pool) writeThrough(off uint64, n int) error {
	if _, err := p.f.WriteAt(p.data[off:off+uint64(n)], int64(off)); err != nil {
		return fmt.Errorf("pmem: write-through at %d: %w", off, err)
	}
	return nil
}

// PutUint64 stores a little-endian uint64 at off and persists it.
func (p *Pool) PutUint64(off uint64, v uint64) error {
	binary.LittleEndian.PutUint64(p.View(off, 8), v)
	return p.Persist(off, 8)
}

// GetUint64 loads a little-endian uint64 at off.
func (p *Pool) GetUint64(off uint64) uint64 {
	return binary.LittleEndian.Uint64(p.View(off, 8))
}

// PutFloat64 stores a float64 at off and persists it.
func (p *Pool) PutFloat64(off uint64, v float64) error {
	return p.PutUint64(off, math.Float64bits(v))
}

// GetFloat64 loads a float64 at off.
func (p *Pool) GetFloat64(off uint64) float64 {
	return math.Float64frombits(p.GetUint64(off))
}
