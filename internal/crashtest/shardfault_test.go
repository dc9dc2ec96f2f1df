package crashtest

import (
	"testing"
	"time"
)

// TestShardFaultGoldenDeterministic checks that the shard-scoped fault
// script is deterministic: the number of in-scope persist operations on the
// target shard's directory must be identical across runs, so point N always
// names the same operation.
func TestShardFaultGoldenDeterministic(t *testing.T) {
	p1, err := ShardFaultGolden(t.TempDir()+"/a", 0)
	if err != nil {
		t.Fatalf("shard-fault golden run: %v", err)
	}
	p2, err := ShardFaultGolden(t.TempDir()+"/b", 0)
	if err != nil {
		t.Fatalf("shard-fault golden run: %v", err)
	}
	if p1 != p2 {
		t.Fatalf("in-scope persist points differ across runs: %d vs %d", p1, p2)
	}
	// Floor: one shard's WAL appends and checkpoint over the script must
	// expose a healthy number of fault points.
	if p1 < 10 {
		t.Fatalf("shard-scoped script has %d persist points, want >= 10", p1)
	}
	t.Logf("shard-fault script: %d in-scope persist points on shard 0", p1)
}

// TestShardFaultEnumeration is the tentpole proof: for every shard, fail or
// crash (both tear flavors) its fault domain at every in-scope persist point
// (a sample in -short mode). At every point the other shards must keep
// acking, the stitched view must degrade to exclude exactly the victim,
// online recovery must converge to the same fingerprint as a cold restart,
// and no acked commit may be lost nor any unacked transaction half-exposed.
func TestShardFaultEnumeration(t *testing.T) {
	maxPerMode := 0
	if testing.Short() {
		maxPerMode = 6
	}
	for target := 0; target < sfShards; target++ {
		rep, err := ShardFaultEnumerate(t.TempDir(), target, maxPerMode)
		if err != nil {
			t.Fatalf("shard %d enumerate: %v", target, err)
		}
		for _, r := range rep.Results {
			if r.Err != nil {
				t.Errorf("shard %d: %v", target, r.Err)
			}
		}
		t.Logf("shard %d: enumerated %d faults (%s) over %d in-scope points, %d failures",
			target, len(rep.Results), sfModeNames(), rep.Points, rep.Failures)
	}
}

// TestCoordFaultEnumeration sweeps the 2PC coordinator's decision log —
// the commit point of every cross-shard transaction — with the same fault
// flavors. Single-shard traffic must keep acking while cross-shard commits
// fail fast with ErrCoordinatorDown, presumed abort must hold (no phantom
// commits), and RecoverCoordinator must restore cross-shard service online.
func TestCoordFaultEnumeration(t *testing.T) {
	maxPerMode := 0
	if testing.Short() {
		maxPerMode = 4
	}
	rep, err := CoordFaultEnumerate(t.TempDir(), maxPerMode)
	if err != nil {
		t.Fatalf("coord enumerate: %v", err)
	}
	if rep.Points < 6 {
		t.Fatalf("cross-shard script appended %d coordinator decisions, want >= 6", rep.Points)
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Errorf("%v", r.Err)
		}
	}
	t.Logf("enumerated %d coordinator faults over %d decision-log ops, %d failures",
		len(rep.Results), rep.Points, rep.Failures)
}

// TestShardStormShort runs a brief randomized fault storm: concurrent
// single- and cross-shard writers plus a stitched-analytics reader race a
// chaos controller that repeatedly downs one fault domain and recovers it
// online. Acked writes must never be lost, cross-shard pairs must agree,
// and the cluster must end fully healthy and durable.
func TestShardStormShort(t *testing.T) {
	d := 2 * time.Second
	if testing.Short() {
		d = time.Second
	}
	rep, err := ShardStorm(StormConfig{Dir: t.TempDir(), Duration: d, Seed: 1})
	if err != nil {
		t.Fatalf("storm: %v (report: %+v)", err, rep)
	}
	if rep.ShardFaults+rep.CoordFaults == 0 {
		t.Fatalf("storm injected no faults: %+v", rep)
	}
	t.Logf("storm: %d acked (%d cross), %d sheds, %d raw errs, %d stitches (%d degraded), "+
		"%d shard faults, %d coord faults, %d recoveries (max %v)",
		rep.Acked, rep.CrossAcked, rep.Sheds, rep.OtherErrs, rep.Stitches, rep.Degraded,
		rep.ShardFaults, rep.CoordFaults, rep.Recoveries, rep.RecoveryMax.Round(time.Microsecond))
}
