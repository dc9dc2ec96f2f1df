package crashtest

import (
	"strings"
	"testing"

	"h2tap/internal/faultinject"
	"h2tap/internal/vfs"
)

// TestGoldenDeterministic checks the assumption the enumeration rests on:
// replaying the workload on a fresh directory yields the same persist
// operations and the same per-commit fingerprints every time, so crash
// point N lands on the same operation in every run. It also checks what
// those operations are: the write-ahead log is the only durable state.
func TestGoldenDeterministic(t *testing.T) {
	g1, err := GoldenRun(t.TempDir() + "/a")
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	g2, err := GoldenRun(t.TempDir() + "/b")
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	p1, p2 := g1.Points(), g2.Points()
	if p1 != p2 {
		t.Fatalf("persist points differ across runs: %d vs %d", p1, p2)
	}
	for i := range g1.OpPaths {
		if g1.OpPaths[i] != g2.OpPaths[i] {
			t.Fatalf("persist op %d hits %s in one run and %s in the other", i+1, g1.OpPaths[i], g2.OpPaths[i])
		}
	}
	if len(g1.Fps) != len(g2.Fps) {
		t.Fatalf("fingerprint counts differ: %d vs %d", len(g1.Fps), len(g2.Fps))
	}
	for i := range g1.Fps {
		if g1.Fps[i] != g2.Fps[i] {
			t.Fatalf("fingerprint %d differs across runs:\n%s\nvs\n%s", i, g1.Fps[i], g2.Fps[i])
		}
	}
	// The acceptance floor: a commit+checkpoint+propagate workload must
	// expose at least 30 distinct persist points to crash at.
	if p1 < 30 {
		t.Fatalf("workload has %d persist points, want >= 30", p1)
	}

	// What the points are: log appends and syncs, and checkpoint swaps.
	// Nothing else in the directory is written.
	commits := len(g1.Fps) - 1
	var walOps, tmpRuns int
	for i, p := range g1.OpPaths {
		switch {
		case strings.HasSuffix(p, ".pool") || p == "pools.ok":
			t.Fatalf("persist op %d writes %s: durable mode is the WAL alone", i+1, p)
		case p == "graph.wal":
			walOps++
		case p == "graph.wal.tmp":
			if i > 0 && g1.OpPaths[i-1] == p {
				continue
			}
			// A checkpoint creates, writes, syncs and renames the temp log
			// (the rename counts against it), then syncs the directory.
			n := i
			for n < len(g1.OpPaths) && g1.OpPaths[n] == p {
				n++
			}
			if n-i < 4 || n == len(g1.OpPaths) || g1.OpPaths[n] != "." {
				t.Fatalf("checkpoint at persist op %d writes %v, want >= 4 temp-log ops and a directory sync", i+1, g1.OpPaths[i:min(n+1, len(g1.OpPaths))])
			}
			tmpRuns++
		case p == ".":
		default:
			t.Fatalf("persist op %d writes unexpected file %s", i+1, p)
		}
	}
	// Every commit appends its record and syncs it (SyncWAL), so the live
	// log takes at least two operations per commit.
	if walOps < 2*commits {
		t.Fatalf("graph.wal has %d persist ops for %d commits, want >= %d (append + sync each)", walOps, commits, 2*commits)
	}
	if tmpRuns != g1.Checkpoints || g1.Checkpoints < 2 {
		t.Fatalf("%d graph.wal.tmp runs for %d checkpoints, want one per checkpoint and >= 2 checkpoints", tmpRuns, g1.Checkpoints)
	}
	t.Logf("workload: %d persist points (%d on graph.wal), %d commits, %d checkpoints", p1, walOps, commits, g1.Checkpoints)
}

// TestCrashEnumeration injects a crash at every persist point (an evenly
// spaced sample in -short mode), in both tear-all and tear-half modes, and
// requires every recovery invariant to hold at every point.
func TestCrashEnumeration(t *testing.T) {
	maxPerMode := 0
	if testing.Short() {
		maxPerMode = 20
	}
	rep, err := Enumerate(t.TempDir(), maxPerMode, nil)
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if rep.Points < 30 {
		t.Fatalf("workload has %d persist points, want >= 30", rep.Points)
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Errorf("crash at op %d/%d (%s), %d commits completed: %v",
				r.Point, rep.Points, r.Tear, r.Completed, r.Err)
		}
	}
	t.Logf("enumerated %d crashes over %d persist points, %d failures",
		len(rep.Results), rep.Points, rep.Failures)
}

// TestInjectedFailureIsSurfacedNotFatal exercises the FailAt (transient
// I/O error, no crash) path end to end: the failing persist operation must
// surface as an error from the workload — never a silent success, never a
// panic — and the directory must still recover afterwards.
func TestInjectedFailureIsSurfacedNotFatal(t *testing.T) {
	g, err := GoldenRun(t.TempDir())
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	for _, p := range samplePoints(g.Points(), 12) {
		dir := t.TempDir()
		ffs := faultinject.New(vfs.OS())
		ffs.FailAt(p)
		var st runState
		werr := workload(dir, ffs, &st)
		if werr == nil {
			t.Errorf("fail at op %d: workload succeeded, want surfaced error", p)
			continue
		}
		if m, rerr := recoverAndCheck(dir, g.Fps, st.completed); rerr != nil {
			t.Errorf("fail at op %d: recovery after injected error (got %d commits): %v", p, m, rerr)
		}
	}
}

// TestCrashAfterFirstCommitBeforeCheckpoint crashes the workload at the
// first persist operation after its first commit was acknowledged, before
// any checkpoint has rewritten the log. Until then the log is the file the
// first open created, so the commit survives only if that creation was
// made durable by a directory sync.
func TestCrashAfterFirstCommitBeforeCheckpoint(t *testing.T) {
	g, err := GoldenRun(t.TempDir())
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	for p := int64(1); p <= g.Points(); p++ {
		res := RunPoint(t.TempDir(), p, faultinject.TearNone, g.Fps)
		if res.Completed == 0 {
			continue
		}
		if res.Err != nil {
			t.Fatalf("crash at op %d (%s) after the first commit: %v", p, g.OpPaths[p-1], res.Err)
		}
		if res.Recovered < 1 {
			t.Fatalf("crash at op %d: recovered %d commits, want the acked one", p, res.Recovered)
		}
		return
	}
	t.Fatal("no persist point follows the first commit")
}
