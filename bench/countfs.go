package main

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"h2tap/internal/vfs"
)

// countFS is the F seam of the ledger: a vfs.FS wrapper, passed as
// Options.FS, that counts and times what the durability layers ask of the
// device. It sits outside vfs.SlowSync, so a sync's duration includes the
// pinned latency.
type countFS struct {
	vfs.FS
	opens, writes, writeBytes, syncs, syncNanos atomic.Int64
	walWrites, walBytes                         atomic.Int64 // the share of writes that went to *.wal files

	// With spans on (the traced pass) every write and sync is also kept as
	// an interval, to be laid under the commit that waited for it.
	mu    sync.Mutex
	spans bool
	log   []fsSpan
}

// fsSpan is one device call. Calls of one group-commit batch block every
// commit in the batch, so a span is the child of each commit span whose
// interval contains it, not of a single request.
type fsSpan struct {
	start, end int64
	sync       bool
	bytes      int32
}

// fsDelta is a difference of two counter snapshots.
type fsDelta struct{ opens, writes, writeBytes, syncs, syncNanos, walWrites, walBytes int64 }

func newCountFS(inner vfs.FS, spans bool) *countFS {
	return &countFS{FS: inner, spans: spans}
}

func (c *countFS) snapshot() fsDelta {
	return fsDelta{c.opens.Load(), c.writes.Load(), c.writeBytes.Load(), c.syncs.Load(), c.syncNanos.Load(),
		c.walWrites.Load(), c.walBytes.Load()}
}

func (d fsDelta) sub(o fsDelta) fsDelta {
	return d.add(fsDelta{-o.opens, -o.writes, -o.writeBytes, -o.syncs, -o.syncNanos, -o.walWrites, -o.walBytes})
}

func (d fsDelta) add(o fsDelta) fsDelta {
	return fsDelta{d.opens + o.opens, d.writes + o.writes, d.writeBytes + o.writeBytes, d.syncs + o.syncs,
		d.syncNanos + o.syncNanos, d.walWrites + o.walWrites, d.walBytes + o.walBytes}
}

// takeSpans returns and clears the recorded device calls.
func (c *countFS) takeSpans() []fsSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.log
	c.log = nil
	return out
}

func (c *countFS) note(start, end int64, sync bool, n int) {
	if !c.spans {
		return
	}
	c.mu.Lock()
	c.log = append(c.log, fsSpan{start: start, end: end, sync: sync, bytes: int32(n)})
	c.mu.Unlock()
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	c.opens.Add(1)
	return &countFile{File: f, c: c, wal: strings.HasSuffix(name, ".wal")}, nil
}

func (c *countFS) SyncDir(name string) error {
	t0 := now()
	err := c.FS.SyncDir(name)
	c.synced(t0)
	return err
}

func (c *countFS) synced(t0 int64) {
	t1 := now()
	c.syncs.Add(1)
	c.syncNanos.Add(t1 - t0)
	c.note(t0, t1, true, 0)
}

func (c *countFS) wrote(t0 int64, n int, wal bool) {
	c.writes.Add(1)
	c.writeBytes.Add(int64(n))
	if wal {
		c.walWrites.Add(1)
		c.walBytes.Add(int64(n))
	}
	c.note(t0, now(), false, n)
}

type countFile struct {
	vfs.File
	c   *countFS
	wal bool
}

func (f *countFile) Write(p []byte) (int, error) {
	t0 := now()
	n, err := f.File.Write(p)
	f.c.wrote(t0, n, f.wal)
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := now()
	n, err := f.File.WriteAt(p, off)
	f.c.wrote(t0, n, f.wal)
	return n, err
}

func (f *countFile) Sync() error {
	t0 := now()
	err := f.File.Sync()
	f.c.synced(t0)
	return err
}
