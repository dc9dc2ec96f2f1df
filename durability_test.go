package h2tap

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"h2tap/internal/faultinject"
	"h2tap/internal/vfs"
)

// durableLayouts is what a durable directory holds after a clean close:
// one graph.wal per domain, plus the coordinator's coord.wal when sharded.
var durableLayouts = []struct {
	shards int
	files  []string
}{
	{0, []string{"graph.wal"}},
	{2, []string{"coord.wal", "shard-000/graph.wal", "shard-001/graph.wal"}},
}

// TestOpenRecoversFromPartialPoolInit opens directories laid out by
// releases that kept persistent-memory pools beside the WAL: the logs plus
// garbage delta.pool, csr.pool and pools.ok files (as a crash during pool
// initialization could leave them) and a checkpoint's leftover
// graph.wal.tmp. Open must recover the graph from the logs alone and delete
// every stale file.
func TestOpenRecoversFromPartialPoolInit(t *testing.T) {
	for _, l := range durableLayouts {
		t.Run(fmt.Sprintf("shards=%d", l.shards), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{PersistDir: dir, Shards: l.shards}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			commitNodes(t, db, 3)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			for _, f := range l.files {
				if filepath.Base(f) != "graph.wal" {
					continue // pools lived beside domain logs only
				}
				for _, name := range []string{"delta.pool", "csr.pool", "pools.ok", "graph.wal.tmp"} {
					if err := os.WriteFile(filepath.Join(dir, filepath.Dir(f), name), []byte("partial garbage"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}

			db2, err := Open(opts)
			if err != nil {
				t.Fatalf("open over a pool-era directory: %v", err)
			}
			defer db2.Close()
			if got := db2.Stats().LiveNodes; got != 3 {
				t.Fatalf("recovered %d nodes, want 3", got)
			}
			if got := durableFiles(t, dir); !reflect.DeepEqual(got, l.files) {
				t.Fatalf("directory holds %v after reopen, want %v", got, l.files)
			}
		})
	}
}

// TestDurableDirHoldsOnlyLogs runs a full durable lifecycle — open, commit,
// propagate, checkpoint, close — and checks that the logs are all durable
// mode writes.
func TestDurableDirHoldsOnlyLogs(t *testing.T) {
	for _, l := range durableLayouts {
		t.Run(fmt.Sprintf("shards=%d", l.shards), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(Options{PersistDir: dir, Shards: l.shards, SyncWAL: true})
			if err != nil {
				t.Fatal(err)
			}
			commitNodes(t, db, 4)
			if _, err := db.Propagate(); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if got := durableFiles(t, dir); !reflect.DeepEqual(got, l.files) {
				t.Fatalf("durable directory holds %v, want %v", got, l.files)
			}
		})
	}
}

// commitNodes commits n single-node transactions through whichever
// transaction API the database's mode takes.
func commitNodes(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var err error
		if db.Cluster() != nil {
			var tx *ClusterTx
			if tx, err = db.BeginSharded(); err == nil {
				if _, err = tx.AddNode("P", nil); err == nil {
					err = tx.Commit()
				}
			}
		} else {
			tx := db.Begin()
			if _, err = tx.AddNode("P", nil); err == nil {
				err = tx.Commit()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// durableFiles lists the regular files under dir, relative to it, in
// lexical order.
func durableFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files = append(files, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestOpenCrashSweepDuringInit crashes Open at every one of its persist
// operations in turn and requires a plain reopen of the same directory to
// come up working, and clean, every time. The directory is the one an
// interrupted initialization of a pool-era release leaves — pool files and
// sentinel, a checkpoint temp, no log yet — so the swept init both removes
// the stale files and creates the log.
func TestOpenCrashSweepDuringInit(t *testing.T) {
	staleDir := func() string {
		dir := t.TempDir()
		for _, name := range []string{"delta.pool", "csr.pool", "pools.ok", "graph.wal.tmp"} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("partial garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	cfs := faultinject.New(vfs.OS())
	db, err := Open(Options{PersistDir: staleDir(), FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	n := cfs.Ops()
	db.Close()
	if n < 5 {
		t.Fatalf("init has only %d persist ops, counting is broken", n)
	}

	for p := int64(1); p <= n; p++ {
		dir := staleDir()
		ffs := faultinject.New(vfs.OS())
		ffs.CrashAt(p, faultinject.TearHalf)
		if db, err := Open(Options{PersistDir: dir, FS: ffs}); err == nil {
			db.Close()
		}
		db2, err := Open(Options{PersistDir: dir})
		if err != nil {
			t.Fatalf("crash at init op %d/%d: reopen failed: %v", p, n, err)
		}
		tx := db2.Begin()
		if _, err := tx.AddNode("P", nil); err != nil {
			t.Fatalf("crash at init op %d/%d: %v", p, n, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("crash at init op %d/%d: post-recovery commit: %v", p, n, err)
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("crash at init op %d/%d: close: %v", p, n, err)
		}
		if got := durableFiles(t, dir); !reflect.DeepEqual(got, []string{"graph.wal"}) {
			t.Fatalf("crash at init op %d/%d: directory holds %v after reopen", p, n, got)
		}
	}
}

func TestDoubleClose(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second close of volatile db: %v", err)
	}

	dir := t.TempDir()
	db2, err := Open(Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tx := db2.Begin()
	tx.AddNode("P", nil)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatalf("second close of persistent db: %v", err)
	}
}

// TestCheckpointWithConcurrentCommits checkpoints repeatedly while four
// goroutines commit — no maintenance window — and checks no commit is lost
// across recovery.
func TestCheckpointWithConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := db.Begin()
				if _, err := tx.AddNode("W", nil); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Store().LiveNodes(); got != workers*perWorker {
		t.Fatalf("recovered %d nodes, want %d", got, workers*perWorker)
	}
}
