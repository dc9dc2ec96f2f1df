package deltastore

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"h2tap/internal/delta"
	"h2tap/internal/pmem"
	"h2tap/internal/sim"
	"h2tap/internal/vfs"
)

// gateFS parks the first pool write-through issued after armed is set until
// release is closed.
type gateFS struct {
	vfs.FS
	armed         atomic.Bool
	held, release chan struct{}
}

type gateFile struct {
	vfs.File
	g *gateFS
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	return gateFile{f, g}, err
}

func (f gateFile) WriteAt(p []byte, off int64) (int, error) {
	if f.g.armed.CompareAndSwap(true, false) {
		close(f.g.held)
		<-f.g.release
	}
	return f.File.WriteAt(p, off)
}

// TestConcurrentCaptureDurableImageEndsAtTxBoundary holds one capture in
// the middle of its mirror while a second capture, which reserved later
// indexes, gets the chance to finish. A crash at that moment must recover
// a durable image that ends at a transaction boundary: the second capture's
// length publication may not cover the first one's unwritten record.
func TestConcurrentCaptureDurableImageEndsAtTxBoundary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "delta.pool")
	gfs := &gateFS{FS: vfs.OS(), held: make(chan struct{}), release: make(chan struct{})}
	pool, err := pmem.CreateOn(gfs, path, 8<<20, sim.DefaultPMem())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	s, err := NewPersistent(pool)
	if err != nil {
		t.Fatal(err)
	}
	s.Capture(txd(1, delta.NodeDelta{Node: 1, Ins: []delta.Edge{{Dst: 2, W: 1}}, Del: []uint64{9}}))

	gfs.armed.Store(true)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.Capture(txd(2, delta.NodeDelta{Node: 2, Ins: []delta.Edge{{Dst: 3, W: 1}}}))
	}()
	<-gfs.held // the first capture has reserved and is parked mid-mirror
	second := make(chan struct{})
	go func() {
		defer wg.Done()
		s.Capture(txd(3, delta.NodeDelta{Node: 3, Ins: []delta.Edge{{Dst: 4, W: 1}}}))
		close(second)
	}()
	// A store that serialises mirroring keeps the second capture waiting.
	select {
	case <-second:
	case <-time.After(200 * time.Millisecond):
	}
	img, err := os.ReadFile(path) // the crash: the file as it stands
	close(gfs.release)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(dir, "crashed.pool")
	if err := os.WriteFile(crashed, img, 0o644); err != nil {
		t.Fatal(err)
	}

	pool2, err := pmem.Open(crashed, sim.DefaultPMem())
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	s2, err := OpenPersistent(pool2)
	if err != nil {
		t.Fatalf("recovery from crash image: %v", err)
	}
	if err := s2.Validate(); err != nil {
		t.Fatalf("crash image not at a transaction boundary: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("live image after both captures: %v", err)
	}
	if got := s.Records(); got != 3 {
		t.Fatalf("volatile records = %d, want 3", got)
	}
}
