package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h2tap"
)

func testWorkDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "work")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// Every workload runs end to end at 1/100 scale: one traced set and the
// probes; every metric the contract names is present, the
// end-to-end ones non-zero, nothing failed. -short keeps one volatile and
// one durable workload.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := testWorkDir(t)
	for _, w := range workloads {
		if testing.Short() && w.Name != "txn-burst" && w.Name != "shard-2pc" {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			traced, set := tracedPass(&w, 1, defaultSeconds, 0.02, dir, environment{})
			if !traced.Correct || traced.Failed != 0 || traced.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d notes=%v", traced.Correct, traced.Attempted, traced.Failed, traced.Notes)
			}
			e2e := set.endToEndMetrics()
			for _, s := range endToEnd {
				if m, ok := e2e[s.Name]; !ok || m.Unit != s.Unit || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want unit %q and a value that is never 0", s.Name, m, s.Unit)
				}
			}
			for _, s := range perLayer {
				if m, ok := traced.Metrics[s.Name]; !ok || m.Unit != s.Unit {
					t.Errorf("per-layer metric %s = %+v, want unit %q", s.Name, m, s.Unit)
				}
			}
			traced.print(io.Discard)
			if !strings.Contains(contractLine(traced), `"correct":true`) {
				t.Errorf("contract line: %s", contractLine(traced))
			}
			bypass(t, &w, traced.Metrics)
		})
	}
}

// bypass holds the evidence that a workload leaves the layers it claims to
// bypass alone.
func bypass(t *testing.T, w *workloadSpec, m map[string]metric) {
	t.Helper()
	wl := w.Name
	if got := m["vfs.fsyncs_per_commit"].Value; (got > 0) != w.durable {
		t.Errorf("%s: vfs.fsyncs_per_commit = %v, durable = %v", wl, got, w.durable)
	}
	if got := m["shard.participants_per_tx"].Value; (got > 0) != w.sharded {
		t.Errorf("%s: shard.participants_per_tx = %v", wl, got)
	}
	if w.dynamic {
		if m["csr.merge_ms_per_cycle"].Value != 0 || m["csr.merge_ns_per_edge"].Value != 0 {
			t.Errorf("htap-dynamic reports a csr merge: %v", m["csr.merge_ms_per_cycle"])
		}
		if m["dyngraph.ingest_ns_per_op"].Value <= 0 {
			t.Error("htap-dynamic reports no dyngraph ingest")
		}
	}
	if wl == "txn-burst" && m["mvto.retry_frac"].Value != 0 {
		t.Errorf("txn-burst: mvto.retry_frac = %v, its clients own disjoint windows", m["mvto.retry_frac"].Value)
	}
}

// A correctness violation makes the pass incorrect and the process exit
// non-zero: here an acknowledged commit that the reopened database lacks.
func TestInjectedLedgerLossFailsTheRun(t *testing.T) {
	db, err := h2tap.Open(h2tap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx := db.Begin()
	var ids [4]uint64
	for i := range ids {
		if ids[i], err = tx.AddNode("N", nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]uint64{{ids[0], ids[2]}, {ids[1], ids[3]}} {
		if _, err := tx.AddRel(e[0], e[1], "r", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	present := httpAck{a: ids[2], b: ids[3], p: ids[0], pa: ids[2], q: ids[1], qb: ids[3]}

	c := &runCtx{wl: "http-durable"}
	c.verifyHTTPLedger(db, []httpAck{present})
	if c.failed != 0 {
		t.Fatalf("intact ledger reported %d failures: %v", c.failed, c.notes)
	}
	lost := present
	lost.pa = ids[3] // an edge the database never got
	c.verifyHTTPLedger(db, []httpAck{present, lost, {a: 999, b: 1000}})
	if c.failed != 2 || len(c.notes) != 2 {
		t.Fatalf("want 2 violations, got %d: %v", c.failed, c.notes)
	}
	res := c.result(false, 1, defaultSeconds)
	if res.Correct {
		t.Error("a pass with violations must not be correct")
	}
	if code := exitCode([]passResult{{Correct: true}, res}); code == 0 {
		t.Error("exit code 0 with an incorrect pass")
	}
	if code := exitCode([]passResult{{Correct: true}}); code != 0 {
		t.Errorf("exit code %d with only correct passes", code)
	}
}
