package crashtest

import (
	"testing"

	"h2tap/internal/faultinject"
	"h2tap/internal/htap"
)

// TestGPUGoldenDeterministic checks the assumption the GPU-fault
// enumeration rests on: replaying the workload fault-free yields the same
// per-operation occurrence counts every time, so occurrence N of an
// operation lands on the same device call in every run.
func TestGPUGoldenDeterministic(t *testing.T) {
	for _, replica := range []htap.ReplicaKind{htap.StaticCSR, htap.DynamicHash} {
		c1, err := GPUGoldenRun(replica)
		if err != nil {
			t.Fatalf("golden run (%v): %v", replica, err)
		}
		c2, err := GPUGoldenRun(replica)
		if err != nil {
			t.Fatalf("golden run (%v): %v", replica, err)
		}
		for _, op := range faultinject.GPUOps {
			if c1[op] != c2[op] {
				t.Errorf("%v: op %q count differs across runs: %d vs %d", replica, op, c1[op], c2[op])
			}
		}
		// The workload must exercise launches and the replica-apply op of
		// its kind; a zero count means the enumeration would skip the op.
		if c1[faultinject.GPULaunch] == 0 {
			t.Errorf("%v: workload never launches a kernel", replica)
		}
		apply := faultinject.GPUReplace
		if replica == htap.DynamicHash {
			apply = faultinject.GPUIngest
		}
		if c1[apply] == 0 {
			t.Errorf("%v: workload never exercises %q", replica, apply)
		}
		t.Logf("%v: %v", replica, c1)
	}
}

// TestGPUFaultEnumeration injects transient and persistent faults at every
// occurrence of every device operation (an evenly spaced sample in -short
// mode), on both replica kinds, and requires every propagation invariant —
// failure-atomic consumption, degraded availability, post-heal convergence,
// zero scrub divergence — to hold at every point.
func TestGPUFaultEnumeration(t *testing.T) {
	maxPerOp := 0
	if testing.Short() {
		maxPerOp = 4
	}
	rep, err := EnumerateGPUFaults(maxPerOp)
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if len(rep.Results) == 0 {
		t.Fatal("enumeration produced no fault runs")
	}
	injected := 0
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Errorf("%v fault at %s#%d (%v): %v", r.Kind, r.Op, r.N, r.Replica, r.Err)
		}
		if r.Injected > 0 {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("no run actually injected a fault")
	}
	t.Logf("%d fault runs (%d injected a fault), per-op counts %v, %d failures",
		len(rep.Results), injected, rep.PerOp, rep.Failures)
}
