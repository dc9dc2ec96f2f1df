package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"h2tap/internal/faultinject"
	"h2tap/internal/graph"
	"h2tap/internal/vfs"
)

// fileCounts is what one file was asked to do.
type fileCounts struct{ writes, bytes, syncs int }

// countFS counts the writes, written bytes and syncs each file receives.
type countFS struct {
	vfs.FS
	mu    sync.Mutex
	files map[string]*fileCounts
}

func newCountFS(inner vfs.FS) *countFS {
	return &countFS{FS: inner, files: make(map[string]*fileCounts)}
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c, name: name}, nil
}

func (c *countFS) note(name string, n int, sync bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fc := c.files[name]
	if fc == nil {
		fc = &fileCounts{}
		c.files[name] = fc
	}
	if sync {
		fc.syncs++
	} else {
		fc.writes++
		fc.bytes += n
	}
}

// of returns one file's counts since the last reset.
func (c *countFS) of(name string) fileCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc := c.files[name]; fc != nil {
		return *fc
	}
	return fileCounts{}
}

// total sums the counts over every file since the last reset.
func (c *countFS) total() fileCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t fileCounts
	for _, fc := range c.files {
		t.writes += fc.writes
		t.bytes += fc.bytes
		t.syncs += fc.syncs
	}
	return t
}

func (c *countFS) reset() {
	c.mu.Lock()
	c.files = make(map[string]*fileCounts)
	c.mu.Unlock()
}

type countFile struct {
	vfs.File
	c    *countFS
	name string
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.note(f.name, n, false)
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.c.note(f.name, n, false)
	return n, err
}

func (f *countFile) Sync() error {
	err := f.File.Sync()
	f.c.note(f.name, 0, true)
	return err
}

// openDurable opens a synced, durable cluster of n shards in a fresh
// directory on fsys (nil: the OS filesystem).
func openDurable(t *testing.T, n int, fsys vfs.FS) (*Cluster, string) {
	t.Helper()
	dir := t.TempDir()
	c, err := Open(Options{Shards: n, PersistDir: dir, SyncWAL: true, FS: fsys})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, dir
}

// nodePerShard commits nodes one transaction each until every shard holds
// one (placement hashes the allocation sequence) and returns one node per
// shard, indexed by shard. No set-up commit touches two shards.
func nodePerShard(t *testing.T, c *Cluster) []uint64 {
	t.Helper()
	out := make([]uint64, c.Shards())
	seen := make([]bool, c.Shards())
	for have := 0; have < c.Shards(); {
		tx := c.Begin()
		g, err := tx.AddNode("N", nil)
		if err != nil {
			t.Fatalf("AddNode: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if s := c.part.ShardOf(g); !seen[s] {
			out[s], seen[s] = g, true
			have++
		}
	}
	return out
}

func shardWAL(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i), "graph.wal")
}

func coordWAL(dir string) string { return filepath.Join(dir, "coord.wal") }

// A cross-shard edge writes only its source's shard and reads the
// destination's, so it commits as a one-writer transaction: one commit
// record and one flush on the writer's log, nothing on the reader's log or
// the coordinator's, and no registry entry.
func TestCrossShardOneWriterLogsOnlyOnWriter(t *testing.T) {
	fs := newCountFS(vfs.OS())
	c, dir := openDurable(t, 2, fs)
	n := nodePerShard(t, c)
	fs.reset()

	tx := c.Begin()
	if _, err := tx.AddRel(n[0], n[1], "x", 1); err != nil {
		t.Fatalf("AddRel: %v", err)
	}
	if got := len(tx.Participants()); got != 2 {
		t.Fatalf("participants %d, want 2", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if w := fs.of(shardWAL(dir, 0)); w.writes != 1 || w.syncs != 1 {
		t.Errorf("writer WAL: %d appends, %d fsyncs; want 1 and 1", w.writes, w.syncs)
	}
	if r := fs.of(shardWAL(dir, 1)); r.bytes != 0 || r.syncs != 0 {
		t.Errorf("reader WAL: %d bytes, %d fsyncs; want none", r.bytes, r.syncs)
	}
	if co := fs.of(coordWAL(dir)); co.bytes != 0 || co.syncs != 0 {
		t.Errorf("coord.wal: %d bytes, %d fsyncs; want none", co.bytes, co.syncs)
	}
	if got := c.CrossTxLive(); got != 0 {
		t.Errorf("registry holds %d entries, want 0", got)
	}
	if got := c.Commits(CommitOneWriter); got != 1 {
		t.Errorf("one_writer commits %d, want 1", got)
	}
}

// A transaction that only reads, on every shard, writes nothing anywhere.
func TestCrossShardReadOnlyWritesNothing(t *testing.T) {
	fs := newCountFS(vfs.OS())
	c, _ := openDurable(t, 3, fs)
	n := nodePerShard(t, c)
	fs.reset()

	tx := c.Begin()
	for _, g := range n {
		if !tx.NodeExists(g) {
			t.Fatalf("node %d not visible", g)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if tot := fs.total(); tot != (fileCounts{}) {
		t.Errorf("read-only commit: %d writes (%d bytes), %d syncs; want none", tot.writes, tot.bytes, tot.syncs)
	}
}

// Two writers and a reader: two-phase commit runs among the writers only.
// Each writer's log gets a prepare and a decision record, the reader's log
// gets nothing, and the stitcher's registry entry names the writers alone.
func TestCrossShardTwoWritersOneReader(t *testing.T) {
	fs := newCountFS(vfs.OS())
	c, dir := openDurable(t, 3, fs)
	n := nodePerShard(t, c)
	fs.reset()

	tx := c.Begin()
	for _, g := range n[:2] {
		if err := tx.SetNodeProp(g, "k", graph.Int(1)); err != nil {
			t.Fatalf("SetNodeProp: %v", err)
		}
	}
	if !tx.NodeExists(n[2]) {
		t.Fatalf("node %d not visible", n[2])
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for i, want := range []int{2, 2, 0} {
		if got := fs.of(shardWAL(dir, i)).writes; got != want {
			t.Errorf("shard %d WAL: %d records, want %d", i, got, want)
		}
	}
	if got := fs.of(coordWAL(dir)).writes; got != 1 {
		t.Errorf("coord.wal: %d records, want 1 decision", got)
	}
	c.reg.mu.Lock()
	e := c.reg.entries[c.gtx.Load()]
	c.reg.mu.Unlock()
	if e == nil {
		t.Fatal("no registry entry for the two-writer commit")
	}
	if _, ok := e.parts[2]; ok || len(e.parts) != 2 {
		t.Errorf("registry entry names shards %v, want the writers 0 and 1 only", e.parts)
	}
	if got := c.Commits(CommitTwoPhase); got != 1 {
		t.Errorf("two_phase commits %d, want 1", got)
	}
}

// A latched coordinator refuses only the commits that need it: two writers.
func TestCrossShardLatchedCoordinator(t *testing.T) {
	ffs := faultinject.New(vfs.OS())
	c, dir := openDurable(t, 2, ffs)
	n := nodePerShard(t, c)
	twoWriters := func() error {
		tx := c.Begin()
		for _, g := range n {
			if err := tx.SetNodeProp(g, "k", graph.Int(1)); err != nil {
				t.Fatalf("SetNodeProp: %v", err)
			}
		}
		return tx.Commit()
	}

	// Latch the coordinator: its next decision append fails.
	ffs.SetScope(coordWAL(dir))
	ffs.FailIn(1)
	if err := twoWriters(); !errors.Is(err, ErrCoordinatorDown) {
		t.Fatalf("two-writer commit over a failing decision append: %v, want ErrCoordinatorDown", err)
	}
	if c.CoordErr() == nil {
		t.Fatal("coordinator did not latch")
	}

	tx := c.Begin()
	if _, err := tx.AddRel(n[0], n[1], "x", 1); err != nil {
		t.Fatalf("AddRel: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("one-writer commit with a latched coordinator: %v", err)
	}
	if err := twoWriters(); !errors.Is(err, ErrCoordinatorDown) {
		t.Fatalf("two-writer commit with a latched coordinator: %v, want ErrCoordinatorDown", err)
	}
}

// A read-only participant still votes: if its shard goes Down, or is
// recovered onto a new core, between the read and the commit, the
// transaction is shed with that shard's ShardDownError and the writer's
// half is rolled back.
func TestCrossShardReaderShed(t *testing.T) {
	for _, superseded := range []bool{false, true} {
		t.Run(fmt.Sprintf("superseded=%v", superseded), func(t *testing.T) {
			c, _ := openDurable(t, 2, nil)
			n := nodePerShard(t, c)
			tx := c.Begin()
			if _, err := tx.AddRel(n[0], n[1], "x", 1); err != nil {
				t.Fatalf("AddRel: %v", err)
			}
			c.Domain(1).quarantine(errors.New("injected"))
			if superseded {
				if err := c.RecoverShard(1); err != nil {
					t.Fatalf("RecoverShard: %v", err)
				}
			}
			err := tx.Commit()
			var sde *ShardDownError
			if !errors.As(err, &sde) || sde.Shard != 1 {
				t.Fatalf("commit = %v, want a ShardDownError for shard 1", err)
			}
			if got := c.Domain(0).Store().LiveRels(); got != 0 {
				t.Fatalf("writer shard holds %d relationships after the shed, want 0", got)
			}
		})
	}
}
