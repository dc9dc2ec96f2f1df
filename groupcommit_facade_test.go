package h2tap

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// metricValue reads one un-labeled metric out of the observer's Prometheus
// exposition.
func metricValue(t *testing.T, o *Observer, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	o.Reg.WritePrometheus(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("parse %s: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestSyncWALGroupCommitRoundTrip drives the facade end to end: SyncWAL and
// GroupCommit set in Options must reach the WAL (observed through the wired
// metrics — fsyncs happen, batches form under concurrency), survive a
// close/reopen, and SyncWAL=false must suppress commit-path fsyncs.
func TestSyncWALGroupCommitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	o := NewObserver()
	db, err := Open(Options{
		PersistDir:  dir,
		SyncWAL:     true,
		GroupCommit: GroupCommit{MaxBatch: 8},
		Observer:    o,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := db.Begin()
				if _, err := tx.AddNode("P", nil); err != nil {
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
	wg.Wait()
	appends := metricValue(t, o, "h2tap_wal_appends_total")
	syncs := metricValue(t, o, "h2tap_wal_fsyncs_total")
	batches := metricValue(t, o, "h2tap_wal_batches_total")
	maxBatch := metricValue(t, o, "h2tap_wal_batch_max_records")
	lingers := metricValue(t, o, "h2tap_wal_lingers_total")
	joined := metricValue(t, o, "h2tap_wal_linger_joined_total")
	if lingers < 0 || joined < 0 || joined > appends {
		t.Fatalf("lingers = %v, linger joins = %v of %v appends", lingers, joined, appends)
	}
	if appends != workers*perWorker {
		t.Fatalf("appends = %v, want %d", appends, workers*perWorker)
	}
	if syncs == 0 {
		t.Fatal("SyncWAL=true produced no fsyncs")
	}
	if syncs != batches {
		t.Fatalf("syncs = %v, batches = %v: want one fsync per batch", syncs, batches)
	}
	if maxBatch < 1 || maxBatch > 8 {
		t.Fatalf("max batch = %v, want within [1, 8] (MaxBatch option ignored?)", maxBatch)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without SyncWAL: recovery sees every acked commit and the
	// commit path stops fsyncing.
	o2 := NewObserver()
	db2, err := Open(Options{PersistDir: dir, SyncWAL: false, Observer: o2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Store().LiveNodes(); got != workers*perWorker {
		t.Fatalf("recovered %d nodes, want %d", got, workers*perWorker)
	}
	tx := db2.Begin()
	if _, err := tx.AddNode("P", nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if syncs := metricValue(t, o2, "h2tap_wal_fsyncs_total"); syncs != 0 {
		t.Fatalf("SyncWAL=false still fsynced %v times on the commit path", syncs)
	}
	if appends := metricValue(t, o2, "h2tap_wal_appends_total"); appends != 1 {
		t.Fatalf("appends after reopen = %v, want 1", appends)
	}
}
