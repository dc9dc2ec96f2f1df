package crashtest

import (
	"testing"

	"h2tap/internal/faultinject"
	"h2tap/internal/shard"
	"h2tap/internal/vfs"
)

// TestTwopcGoldenDeterministic checks the sharded workload's determinism:
// hashed node placement, ascending-order prepares and fixed transaction
// shapes must land crash point N on the same persist operation — and produce
// the same per-commit cluster fingerprints — in every run.
func TestTwopcGoldenDeterministic(t *testing.T) {
	g1, err := TwopcGoldenRun(t.TempDir() + "/a")
	if err != nil {
		t.Fatalf("2pc golden run: %v", err)
	}
	g2, err := TwopcGoldenRun(t.TempDir() + "/b")
	if err != nil {
		t.Fatalf("2pc golden run: %v", err)
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
	// Floor: three shard WALs plus a coordinator log over six transactions
	// must expose well over 30 persist points (prepares, decisions, local
	// decisions, rotation).
	if p1 < 30 {
		t.Fatalf("sharded workload has %d persist points, want >= 30", p1)
	}
	// Both cross-shard commit paths stay in the sweep. By placement the far
	// edge writes only its source's shard (one writer), while the node
	// batch, the ring, the cascading delete and the back edge write several
	// (two-phase commit); a placement change that lost either would silently
	// drop its persist points from the enumeration.
	for _, p := range []shard.CommitPath{shard.CommitOneWriter, shard.CommitTwoPhase} {
		if g1.Commits[p] == 0 {
			t.Fatalf("golden run committed nothing through the %s path (commits by path: %v)", p, g1.Commits)
		}
	}
	t.Logf("2pc workload: %d persist points, %d commits, by path single/one_writer/two_phase %v",
		p1, len(g1.Fps)-1, g1.Commits)
}

// TestTwopcCrashEnumeration sweeps crashes through every persist point of
// the sharded workload (a sample in -short mode) in both tear modes. Every
// point must recover to a whole-transaction prefix — the same transaction
// count on every shard — resolve any in-doubt 2PC transaction to the
// coordinator's decision, and resume cross-shard service.
func TestTwopcCrashEnumeration(t *testing.T) {
	maxPerMode := 0
	if testing.Short() {
		maxPerMode = 16
	}
	rep, err := TwopcEnumerate(t.TempDir(), maxPerMode, nil)
	if err != nil {
		t.Fatalf("2pc enumerate: %v", err)
	}
	if rep.Points < 30 {
		t.Fatalf("sharded workload has %d persist points, want >= 30", rep.Points)
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Errorf("crash at op %d/%d (%s), %d commits completed: %v",
				r.Point, rep.Points, r.Tear, r.Completed, r.Err)
		}
	}
	t.Logf("enumerated %d 2pc crashes over %d persist points, %d failures",
		len(rep.Results), rep.Points, rep.Failures)
}

// TestTwopcInjectedFailureIsSurfacedNotFatal exercises the transient-error
// path (FailAt: the persist op errors, no crash): the sharded workload must
// surface the error — a failed prepare or coordinator append aborts the
// transaction on every shard — and the directory must still recover. Every
// persist point is a WAL or checkpoint operation whose failure the workload
// surfaces, so all of them are swept (an evenly spaced sample in -short
// mode).
func TestTwopcInjectedFailureIsSurfacedNotFatal(t *testing.T) {
	g, err := TwopcGoldenRun(t.TempDir())
	if err != nil {
		t.Fatalf("2pc golden run: %v", err)
	}
	maxPoints := 0
	if testing.Short() {
		maxPoints = 10
	}
	for _, p := range samplePoints(g.Points(), maxPoints) {
		dir := t.TempDir()
		ffs := faultinject.New(vfs.OS())
		ffs.FailAt(p)
		var st runState
		werr := twopcWorkload(dir, ffs, &st)
		if werr == nil {
			t.Errorf("fail at op %d (%s): sharded workload succeeded, want surfaced error", p, g.OpPaths[p-1])
			continue
		}
		if m, rerr := twopcRecoverAndCheck(dir, g.Fps, st.completed); rerr != nil {
			t.Errorf("fail at op %d (%s): recovery after injected error (got %d commits): %v", p, g.OpPaths[p-1], m, rerr)
		}
	}
}
