// Package faultinject wraps a vfs.FS with deterministic fault injection at
// the granularity of individual persist operations — writes, syncs,
// truncates, renames, removes, and mutating opens. Every mutating operation
// gets a 1-based sequence number; a plan can make operation N fail (an I/O
// error the caller sees and must handle) or crash (the operation is dropped
// or torn, and from then on every mutation is blocked, freezing the backing
// files in exactly the state a power loss at that instant would leave).
//
// The crash model is write-through with ordered writes: everything applied
// before the crash point is durable, the crashing write may be torn
// (TearHalf), and nothing after the crash reaches storage. This matches the
// durability model of the simulated persistent memory (internal/pmem), where
// each write-through is the persist fence, and gives the WAL its
// prefix-durability assumption.
//
// internal/crashtest enumerates crash points over a full workload; this
// package only implements the mechanism.
package faultinject

import (
	"errors"
	"os"
	"strings"
	"sync"

	"h2tap/internal/vfs"
)

// Errors returned by injected faults.
var (
	// ErrInjected is the I/O error returned by an operation selected with
	// FailAt. The filesystem stays usable afterwards.
	ErrInjected = errors.New("faultinject: injected I/O error")
	// ErrCrashed is returned by the crashing operation and by every mutating
	// operation after it.
	ErrCrashed = errors.New("faultinject: crashed")
)

// TearMode controls how much of the crashing operation is applied.
type TearMode int

const (
	// TearNone drops the crashing operation entirely (crash just before).
	TearNone TearMode = iota
	// TearHalf applies the first half of a crashing write (a torn write);
	// non-write operations are dropped.
	TearHalf
	// TearAll applies the crashing operation fully, then crashes (crash
	// just after).
	TearAll
)

// String names the tear mode.
func (m TearMode) String() string {
	switch m {
	case TearHalf:
		return "tear-half"
	case TearAll:
		return "tear-all"
	default:
		return "tear-none"
	}
}

// FS wraps an inner filesystem with fault injection. The zero value is not
// usable; call New.
type FS struct {
	inner vfs.FS

	mu      sync.Mutex
	ops     int64
	failAt  int64
	crashAt int64
	tear    TearMode
	crashed bool
	scope   string
	record  bool
	paths   []string // path of each counted operation, while recording
}

// New wraps inner with fault injection. With no plan installed it only
// counts mutating operations (see Ops), which is how a harness discovers the
// persist points of a workload before enumerating crashes at each.
func New(inner vfs.FS) *FS { return &FS{inner: inner} }

// FailAt makes mutating operation n (1-based) return ErrInjected without
// being applied; 0 disables. The filesystem keeps working afterwards.
func (f *FS) FailAt(n int64) {
	f.mu.Lock()
	f.failAt = n
	f.mu.Unlock()
}

// CrashAt makes mutating operation n (1-based) crash the filesystem: the
// operation is dropped, torn, or applied per tear, and every later mutation
// returns ErrCrashed. 0 disables.
func (f *FS) CrashAt(n int64, tear TearMode) {
	f.mu.Lock()
	f.crashAt = n
	f.tear = tear
	f.mu.Unlock()
}

// FailIn arms FailAt k mutating operations from now, atomically with the
// current operation count (a racing committer cannot slip between the read
// of Ops and the arming).
func (f *FS) FailIn(k int64) {
	f.mu.Lock()
	f.failAt = f.ops + k
	f.mu.Unlock()
}

// CrashIn arms CrashAt k mutating operations from now; see FailIn.
func (f *FS) CrashIn(k int64, tear TearMode) {
	f.mu.Lock()
	f.crashAt = f.ops + k
	f.tear = tear
	f.mu.Unlock()
}

// SetScope restricts fault injection to paths with the given prefix. Only
// in-scope operations are counted toward the sequence and are subject to
// the armed plan; out-of-scope operations always pass through untouched,
// even after a crash — the crash models one failure domain (a shard
// directory) losing its device while the rest of the machine keeps working.
// The empty prefix (the default) scopes every path.
func (f *FS) SetScope(prefix string) {
	f.mu.Lock()
	f.scope = prefix
	f.mu.Unlock()
}

// Heal clears the crashed state and any armed plan, restoring pass-through
// behavior. The operation counter is preserved so sequence numbers stay
// meaningful across heal cycles. Files opened before the crash resume
// working; the caller is responsible for reopening state whose durability
// the crash made unknown (that is the point of recovery).
func (f *FS) Heal() {
	f.mu.Lock()
	f.crashed = false
	f.failAt = 0
	f.crashAt = 0
	f.mu.Unlock()
}

// inScope reports whether name is subject to the plan. Callers must hold mu.
func (f *FS) inScope(name string) bool {
	return f.scope == "" || strings.HasPrefix(name, f.scope)
}

// Ops reports how many mutating operations have been observed.
func (f *FS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// RecordPaths makes the FS remember the path of every counted operation
// from now on (see OpPaths), so a harness can pick persist points by the
// file they hit. Off by default: soaks count millions of operations.
func (f *FS) RecordPaths() {
	f.mu.Lock()
	f.record = true
	f.mu.Unlock()
}

// OpPaths returns the path of each operation counted while recording, in
// sequence order (with recording on from the start, OpPaths()[i] is
// operation i+1).
func (f *FS) OpPaths() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.paths...)
}

// Crashed reports whether the crash point has been reached.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// verdict is the decision for one mutating operation.
type verdict int

const (
	vApply verdict = iota // apply normally
	vFail                 // return ErrInjected, not applied
	vDrop                 // crash, not applied
	vTorn                 // crash, apply a torn prefix (writes only)
	vAfter                // crash, apply fully first
)

// step assigns the next sequence number and decides the fate of a mutating
// operation on path. Out-of-scope operations are neither counted nor
// touched by the plan.
func (f *FS) step(path string) verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.inScope(path) {
		return vApply
	}
	if f.crashed {
		return vDrop
	}
	f.ops++
	if f.record {
		f.paths = append(f.paths, path)
	}
	if f.ops == f.failAt {
		return vFail
	}
	if f.ops == f.crashAt {
		f.crashed = true
		switch f.tear {
		case TearHalf:
			return vTorn
		case TearAll:
			return vAfter
		default:
			return vDrop
		}
	}
	return vApply
}

// crashedFor reports whether path is inside a crashed scope.
func (f *FS) crashedFor(path string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed && f.inScope(path)
}

// mutating is true for open flags that change the filesystem.
func mutatingOpen(name string, flag int, fsys vfs.FS) bool {
	if flag&os.O_TRUNC != 0 {
		return true
	}
	if flag&os.O_CREATE != 0 {
		if _, err := fsys.Stat(name); err != nil {
			return true // would create the file
		}
	}
	return false
}

var _ vfs.FS = (*FS)(nil)

// OpenFile opens name. Opens that create or truncate count as mutating.
func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if mutatingOpen(name, flag, f.inner) {
		switch f.step(name) {
		case vFail:
			return nil, ErrInjected
		case vDrop, vTorn:
			return nil, ErrCrashed
		}
		// vAfter: apply the open, then block later mutations (already armed).
	} else if f.crashedFor(name) && flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		// Post-crash, writable handles are refused so no path can mutate
		// durable state after the simulated power loss.
		return nil, ErrCrashed
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, path: name}, nil
}

// Rename renames oldname to newname (one mutating operation).
func (f *FS) Rename(oldname, newname string) error {
	switch f.step(oldname) {
	case vFail:
		return ErrInjected
	case vDrop, vTorn:
		return ErrCrashed
	case vAfter:
		if err := f.inner.Rename(oldname, newname); err != nil {
			return err
		}
		return ErrCrashed
	}
	return f.inner.Rename(oldname, newname)
}

// Remove deletes name (one mutating operation).
func (f *FS) Remove(name string) error {
	switch f.step(name) {
	case vFail:
		return ErrInjected
	case vDrop, vTorn:
		return ErrCrashed
	case vAfter:
		if err := f.inner.Remove(name); err != nil {
			return err
		}
		return ErrCrashed
	}
	return f.inner.Remove(name)
}

// Stat passes through (read-only).
func (f *FS) Stat(name string) (os.FileInfo, error) { return f.inner.Stat(name) }

// MkdirAll passes through: directory scaffolding is setup, not a persist
// point the recovery invariants depend on.
func (f *FS) MkdirAll(name string, perm os.FileMode) error {
	if f.crashedFor(name) {
		return ErrCrashed
	}
	return f.inner.MkdirAll(name, perm)
}

// SyncDir is one mutating operation (it publishes renames/creations).
func (f *FS) SyncDir(name string) error {
	switch f.step(name) {
	case vFail:
		return ErrInjected
	case vDrop, vTorn:
		return ErrCrashed
	case vAfter:
		if err := f.inner.SyncDir(name); err != nil {
			return err
		}
		return ErrCrashed
	}
	return f.inner.SyncDir(name)
}

// faultFile routes a file's mutating operations through the FS plan.
type faultFile struct {
	f    vfs.File
	fs   *FS
	path string
}

var _ vfs.File = (*faultFile)(nil)

func (w *faultFile) Read(p []byte) (int, error)                { return w.f.Read(p) }
func (w *faultFile) ReadAt(p []byte, off int64) (int, error)   { return w.f.ReadAt(p, off) }
func (w *faultFile) Seek(off int64, whence int) (int64, error) { return w.f.Seek(off, whence) }
func (w *faultFile) Stat() (os.FileInfo, error)                { return w.f.Stat() }
func (w *faultFile) Close() error                              { return w.f.Close() }

func (w *faultFile) Write(p []byte) (int, error) {
	switch w.fs.step(w.path) {
	case vFail:
		return 0, ErrInjected
	case vDrop:
		return 0, ErrCrashed
	case vTorn:
		n, _ := w.f.Write(p[:len(p)/2])
		return n, ErrCrashed
	case vAfter:
		if n, err := w.f.Write(p); err != nil {
			return n, err
		}
		return len(p), ErrCrashed
	}
	return w.f.Write(p)
}

func (w *faultFile) WriteAt(p []byte, off int64) (int, error) {
	switch w.fs.step(w.path) {
	case vFail:
		return 0, ErrInjected
	case vDrop:
		return 0, ErrCrashed
	case vTorn:
		n, _ := w.f.WriteAt(p[:len(p)/2], off)
		return n, ErrCrashed
	case vAfter:
		if n, err := w.f.WriteAt(p, off); err != nil {
			return n, err
		}
		return len(p), ErrCrashed
	}
	return w.f.WriteAt(p, off)
}

func (w *faultFile) Truncate(size int64) error {
	switch w.fs.step(w.path) {
	case vFail:
		return ErrInjected
	case vDrop, vTorn:
		return ErrCrashed
	case vAfter:
		if err := w.f.Truncate(size); err != nil {
			return err
		}
		return ErrCrashed
	}
	return w.f.Truncate(size)
}

func (w *faultFile) Sync() error {
	switch w.fs.step(w.path) {
	case vFail:
		return ErrInjected
	case vDrop, vTorn:
		return ErrCrashed
	case vAfter:
		if err := w.f.Sync(); err != nil {
			return err
		}
		return ErrCrashed
	}
	return w.f.Sync()
}
