package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"h2tap/internal/vfs"
)

func TestCountFSCountsAScriptedFile(t *testing.T) {
	dir := t.TempDir()
	const pin = 2 * time.Millisecond
	fs := newCountFS(vfs.SlowSync(vfs.OS(), pin), true)

	log, err := fs.OpenFile(filepath.Join(dir, "graph.wal"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := fs.OpenFile(filepath.Join(dir, "delta.pool"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	before := fs.snapshot()
	for i := 0; i < 3; i++ {
		if _, err := log.Write(make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pool.WriteAt(make([]byte, 64), 128); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := log.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	d := fs.snapshot().sub(before)
	want := fsDelta{opens: 0, writes: 4, writeBytes: 94, syncs: 3, walWrites: 3, walBytes: 30}
	d.syncNanos, want.syncNanos = 0, 0
	if d != want {
		t.Errorf("delta = %+v, want %+v", d, want)
	}
	if got := fs.snapshot().opens; got != 2 {
		t.Errorf("opens = %d, want 2", got)
	}
	// The two file syncs ran under the pinned device; the directory sync is
	// not pinned by vfs.SlowSync.
	if got := time.Duration(fs.snapshot().syncNanos); got < 2*pin {
		t.Errorf("sync time %v, want at least %v", got, 2*pin)
	}
	spans := fs.takeSpans()
	var syncs, writes int
	for _, s := range spans {
		if s.end < s.start {
			t.Errorf("span ends before it starts: %+v", s)
		}
		if s.sync {
			syncs++
		} else {
			writes++
		}
	}
	if syncs != 3 || writes != 4 {
		t.Errorf("spans: %d syncs, %d writes; want 3, 4", syncs, writes)
	}
	if len(fs.takeSpans()) != 0 {
		t.Error("takeSpans did not clear the log")
	}
	log.Close()
	pool.Close()
}

func TestCoverIsTheUnionOfDeviceCalls(t *testing.T) {
	c := newCover([]fsSpan{{start: 10, end: 20}, {start: 15, end: 30}, {start: 50, end: 60}})
	for _, tc := range []struct{ a, b, want int64 }{
		{0, 100, 30}, {0, 10, 0}, {12, 18, 6}, {25, 55, 10}, {60, 70, 0}, {30, 50, 0},
	} {
		if got := c.within(tc.a, tc.b); got != tc.want {
			t.Errorf("within(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}
