package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"h2tap/internal/vfs"
)

func write(t *testing.T, fsys vfs.FS, path string, data []byte) error {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// createSynced creates path and syncs its directory, so the file itself
// survives a crash and only its contents are at stake.
func createSynced(t *testing.T, fsys vfs.FS, path string) vfs.File {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCountsMutatingOpsOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := New(vfs.OS())
	path := filepath.Join(dir, "a")

	if err := write(t, ffs, path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// Creating open (1) + write (2).
	if got := ffs.Ops(); got != 2 {
		t.Fatalf("ops = %d, want 2", got)
	}
	// Read-only traffic is free.
	f, err := ffs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ffs.Stat(path); err != nil {
		t.Fatal(err)
	}
	if got := ffs.Ops(); got != 2 {
		t.Fatalf("ops after reads = %d, want 2", got)
	}
	// Re-opening an existing file without O_TRUNC is not mutating; with
	// O_TRUNC it is.
	f, err = ffs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := ffs.Ops(); got != 2 {
		t.Fatalf("ops after plain reopen = %d, want 2", got)
	}
	f, err = ffs.OpenFile(path, os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := ffs.Ops(); got != 3 {
		t.Fatalf("ops after truncating reopen = %d, want 3", got)
	}
}

func TestFailAtIsTransient(t *testing.T) {
	dir := t.TempDir()
	ffs := New(vfs.OS())
	path := filepath.Join(dir, "a")
	if err := write(t, ffs, path, []byte("one")); err != nil {
		t.Fatal(err)
	}

	ffs.FailAt(ffs.Ops() + 1)
	f, err := ffs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("X"), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected write: %v, want ErrInjected", err)
	}
	// The failure is one-shot: the same handle works again, the file was
	// not modified by the failed write.
	if _, err := f.WriteAt([]byte("two"), 0); err != nil {
		t.Fatalf("write after transient failure: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("content = %q, want %q", got, "two")
	}
	if ffs.Crashed() {
		t.Fatal("FailAt crashed the filesystem")
	}
}

func TestCrashTearHalf(t *testing.T) {
	dir := t.TempDir()
	ffs := New(vfs.OS())
	path := filepath.Join(dir, "a")
	f := createSynced(t, ffs, path)
	defer f.Close()

	ffs.CrashAt(ffs.Ops()+1, TearHalf)
	if _, err := f.Write([]byte("helloworld")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing write: %v, want ErrCrashed", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "hello" {
		t.Fatalf("torn write left %q, want first half %q", got, "hello")
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() false after crash point")
	}

	// Everything mutating is dead after the crash.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync: %v", err)
	}
	if err := f.Truncate(0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash truncate: %v", err)
	}
	if err := ffs.Rename(path, path+"2"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash rename: %v", err)
	}
	if err := ffs.Remove(path); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash remove: %v", err)
	}
	if err := ffs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash syncdir: %v", err)
	}
	if _, err := ffs.OpenFile(path, os.O_RDWR, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash writable open: %v", err)
	}
	// Read-only access still works: recovery inspects the frozen state.
	rf, err := ffs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		t.Fatalf("post-crash read-only open: %v", err)
	}
	rf.Close()
	// The frozen bytes survived all of the above.
	got, _ = os.ReadFile(path)
	if string(got) != "hello" {
		t.Fatalf("post-crash mutations leaked through: %q", got)
	}
}

func TestCrashTearAllAppliesThenBlocks(t *testing.T) {
	dir := t.TempDir()
	ffs := New(vfs.OS())
	path := filepath.Join(dir, "a")
	f := createSynced(t, ffs, path)
	defer f.Close()

	ffs.CrashAt(ffs.Ops()+1, TearAll)
	if _, err := f.Write([]byte("whole")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing write: %v, want ErrCrashed", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "whole" {
		t.Fatalf("tear-all write left %q, want %q", got, "whole")
	}
	if _, err := f.Write([]byte("after")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: %v", err)
	}
}

func TestCrashTearNoneDrops(t *testing.T) {
	dir := t.TempDir()
	ffs := New(vfs.OS())
	path := filepath.Join(dir, "a")
	f := createSynced(t, ffs, path)
	defer f.Close()

	ffs.CrashAt(ffs.Ops()+1, TearNone)
	if _, err := f.Write([]byte("gone")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing write: %v, want ErrCrashed", err)
	}
	got, _ := os.ReadFile(path)
	if len(got) != 0 {
		t.Fatalf("tear-none applied bytes: %q", got)
	}
}

func TestCrashAtRenameTearAll(t *testing.T) {
	dir := t.TempDir()
	ffs := New(vfs.OS())
	oldp := filepath.Join(dir, "tmp")
	newp := filepath.Join(dir, "final")
	if err := write(t, ffs, oldp, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	ffs.CrashAt(ffs.Ops()+1, TearAll)
	if err := ffs.Rename(oldp, newp); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing rename: %v, want ErrCrashed", err)
	}
	if _, err := os.Stat(newp); err != nil {
		t.Fatalf("tear-all rename not applied: %v", err)
	}
	if _, err := os.Stat(oldp); err == nil {
		t.Fatal("tear-all rename left the old name")
	}
}

// TestCrashLosesUnsyncedCreation checks the crash image's namespace rule:
// a file created since its directory's last sync is gone after a crash,
// even with its contents synced, while a file whose creation was followed
// by a directory sync — including one the crashing operation applied in
// full — survives.
func TestCrashLosesUnsyncedCreation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		syncDir  bool // sync the directory before the crash point
		crashDir bool // the crashing operation is that directory sync
		survives bool
	}{
		{"never-synced", false, false, false},
		{"synced", true, false, true},
		{"sync-is-the-crash", false, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := New(vfs.OS())
			path := filepath.Join(dir, "log")
			f, err := ffs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte("acked")); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if tc.syncDir {
				if err := ffs.SyncDir(dir); err != nil {
					t.Fatal(err)
				}
			}
			ffs.CrashAt(ffs.Ops()+1, TearAll)
			if tc.crashDir {
				if err := ffs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
					t.Fatalf("crashing dir sync: %v", err)
				}
			} else if _, err := f.Write([]byte("next")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("crashing write: %v", err)
			}
			got, err := os.ReadFile(path)
			if survives := err == nil; survives != tc.survives {
				t.Fatalf("file survives = %v (%q, %v), want %v", survives, got, err, tc.survives)
			}
		})
	}
}
