package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"h2tap"
	"h2tap/internal/obs"
	"h2tap/internal/vfs"
)

// fetchRequests pulls and decodes /debug/requests.
func fetchRequests(t *testing.T, base string) obs.ReqTrace {
	t.Helper()
	resp, err := http.Get(base + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/requests = %d", resp.StatusCode)
	}
	var out obs.ReqTrace
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// findCommitTrace returns the newest finished "commit" request retained in
// the slow or recent ring.
func findCommitTrace(t *testing.T, tr obs.ReqTrace) obs.ReqSnapshot {
	t.Helper()
	var newest *obs.ReqSnapshot
	for _, ring := range [][]obs.ReqSnapshot{tr.Slow, tr.Recent} {
		for i := range ring {
			if ring[i].Name == "commit" && (newest == nil || ring[i].ID > newest.ID) {
				newest = &ring[i]
			}
		}
	}
	if newest == nil {
		t.Fatalf("no commit trace retained: %+v", tr)
	}
	return *newest
}

// requireSpans asserts every named span is present in the snapshot.
func requireSpans(t *testing.T, snap obs.ReqSnapshot, names ...string) {
	t.Helper()
	have := make(map[string]int, len(snap.Spans))
	for _, sp := range snap.Spans {
		have[sp.Name]++
	}
	for _, n := range names {
		if have[n] == 0 {
			t.Errorf("span %q missing from trace (have %v)", n, have)
		}
	}
}

// spanCoverage computes the fraction of the request's wall time covered by
// the union of its span intervals — the "fully attributed" acceptance bar:
// every slow millisecond should fall inside some named span.
func spanCoverage(snap obs.ReqSnapshot) float64 {
	wall := snap.End.Sub(snap.Start)
	if wall <= 0 {
		return 0
	}
	type iv struct{ s, e time.Time }
	ivs := make([]iv, 0, len(snap.Spans))
	for _, sp := range snap.Spans {
		end := sp.End
		if end.IsZero() {
			end = snap.End
		}
		if end.After(sp.Start) {
			ivs = append(ivs, iv{sp.Start, end})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var covered time.Duration
	var curS, curE time.Time
	for _, v := range ivs {
		if curE.IsZero() || v.s.After(curE) {
			covered += curE.Sub(curS)
			curS, curE = v.s, v.e
			continue
		}
		if v.e.After(curE) {
			curE = v.e
		}
	}
	covered += curE.Sub(curS)
	return float64(covered) / float64(wall)
}

// TestSlowSingleNodeCommitAttribution drives a one-shot commit through a
// WAL whose fsync takes 10ms and asserts the retained trace names every
// layer it crossed — admission rungs, MVTO begin, op application, delta
// build, commit gate, the group-commit enqueue→write→fsync→ack breakdown
// with batch correlation, capture, publish — and that those spans account
// for at least 95% of the measured wall time.
func TestSlowSingleNodeCommitAttribution(t *testing.T) {
	_, base, _ := newTestServer(t, h2tap.Options{
		PersistDir: t.TempDir(),
		SyncWAL:    true,
		FS:         vfs.SlowSync(vfs.OS(), 10*time.Millisecond),
	}, Config{TraceSample: 1, TraceSlow: 5 * time.Millisecond})

	hc := &http.Client{Timeout: 10 * time.Second}
	var cr commitResponse
	status, raw := postJSON(t, hc, base+"/v1/commit",
		`{"ops":[{"op":"add-node","label":"T"},{"op":"add-node","label":"T"}]}`, &cr)
	if status != 200 {
		t.Fatalf("commit = %d: %s", status, raw)
	}

	snap := findCommitTrace(t, fetchRequests(t, base))
	requireSpans(t, snap,
		"admission.deadline", "admission.ratelimit", "admission.semaphore",
		"mvto.begin", "engine.apply", "delta.build", "commit.gate",
		"wal.enqueue", "wal.write", "wal.fsync", "wal.ack",
		"delta.capture", "mvto.publish")
	for _, sp := range snap.Spans {
		if sp.Name == "wal.enqueue" {
			args := map[string]string{}
			for _, a := range sp.Args {
				args[a.Key] = a.Value
			}
			if args["batch"] == "" || args["pos"] == "" {
				t.Errorf("wal.enqueue missing batch/pos correlation args: %v", sp.Args)
			}
		}
	}
	if cov := spanCoverage(snap); cov < 0.95 {
		t.Errorf("span coverage %.1f%% of %.1fms wall, want >= 95%%\nspans: %+v",
			cov*100, snap.WallMs, snap.Spans)
	}
	if snap.Dominant != "wal-fsync" {
		t.Errorf("dominant phase = %q, want wal-fsync (10ms injected fsync)", snap.Dominant)
	}
}

// TestSlowCrossShardCommitAttribution covers both cross-shard commit paths.
// Two nodes placed on both shards are a two-writer commit: a prepare per
// writer, the coordinator decision and a decision apply per writer, each
// carrying the shard index, plus the WAL breakdown of the underlying
// prepare/decision appends. An edge between them writes only its source's
// shard and reads the destination's, so it commits as a one-writer
// transaction: no 2pc spans, no gtx, one fsync.
func TestSlowCrossShardCommitAttribution(t *testing.T) {
	db, err := h2tap.Open(h2tap.Options{
		Shards:     2,
		PersistDir: t.TempDir(),
		SyncWAL:    true,
		FS:         vfs.SlowSync(vfs.OS(), 5*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, Config{Addr: "127.0.0.1:0", TraceSample: 1, TraceSlow: 5 * time.Millisecond}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close() //nolint:errcheck
		db.Close()
	})
	base := "http://" + srv.Addr()

	// Two nodes place round-robin on both shards, so the commit writes both
	// and runs the full two-phase protocol.
	hc := &http.Client{Timeout: 20 * time.Second}
	var cr commitResponse
	status, raw := postJSON(t, hc, base+"/v1/commit",
		`{"ops":[{"op":"add-node","label":"A"},{"op":"add-node","label":"B"}]}`, &cr)
	if status != 200 {
		t.Fatalf("two-writer commit = %d: %s", status, raw)
	}
	if len(cr.Results) != 2 || cr.Results[0].Node == nil || cr.Results[1].Node == nil {
		t.Fatalf("results = %+v", cr.Results)
	}

	snap := findCommitTrace(t, fetchRequests(t, base))
	requireSpans(t, snap,
		"admission.deadline", "admission.ratelimit", "admission.semaphore",
		"mvto.begin", "engine.apply",
		"2pc.prepare", "2pc.decide", "2pc.apply",
		"wal.enqueue", "wal.write", "wal.fsync", "wal.ack",
		"delta.capture", "mvto.publish")
	prepares, applies := 0, 0
	shardsSeen := map[string]bool{}
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "2pc.prepare":
			prepares++
			for _, a := range sp.Args {
				if a.Key == "shard" {
					shardsSeen[a.Value] = true
				}
			}
		case "2pc.apply":
			applies++
		}
	}
	if prepares != 2 || applies != 2 {
		t.Errorf("2pc.prepare ×%d, 2pc.apply ×%d, want 2 participants each", prepares, applies)
	}
	if len(shardsSeen) != 2 {
		t.Errorf("prepare spans name shards %v, want both", shardsSeen)
	}
	gtx := ""
	for _, a := range snap.Args {
		if a.Key == "gtx" {
			gtx = a.Value
		}
	}
	if gtx == "" {
		t.Errorf("request missing gtx arg: %v", snap.Args)
	}
	if cov := spanCoverage(snap); cov < 0.95 {
		t.Errorf("span coverage %.1f%% of %.1fms wall, want >= 95%%\nspans: %+v",
			cov*100, snap.WallMs, snap.Spans)
	}
	if snap.Dominant != "2pc" {
		t.Errorf("dominant phase = %q, want 2pc", snap.Dominant)
	}

	// The edge lives with its source; the destination's shard is only read.
	status, raw = postJSON(t, hc, base+"/v1/commit",
		`{"ops":[{"op":"add-rel","src":`+uitoa(*cr.Results[0].Node)+`,"dst":`+uitoa(*cr.Results[1].Node)+`,"label":"x"}]}`, nil)
	if status != 200 {
		t.Fatalf("one-writer commit = %d: %s", status, raw)
	}
	snap = findCommitTrace(t, fetchRequests(t, base))
	requireSpans(t, snap,
		"admission.deadline", "admission.ratelimit", "admission.semaphore",
		"mvto.begin", "engine.apply", "commit.gate",
		"wal.enqueue", "wal.write", "wal.fsync", "wal.ack",
		"delta.capture", "mvto.publish")
	fsyncs := 0
	for _, sp := range snap.Spans {
		if strings.HasPrefix(sp.Name, "2pc.") {
			t.Errorf("one-writer commit recorded span %q", sp.Name)
		}
		if sp.Name == "wal.fsync" {
			fsyncs++
		}
	}
	if fsyncs != 1 {
		t.Errorf("one-writer commit: %d wal.fsync spans, want 1", fsyncs)
	}
	for _, a := range snap.Args {
		if a.Key == "gtx" {
			t.Errorf("one-writer commit carries gtx %s", a.Value)
		}
	}
	if cov := spanCoverage(snap); cov < 0.95 {
		t.Errorf("one-writer span coverage %.1f%% of %.1fms wall, want >= 95%%\nspans: %+v",
			cov*100, snap.WallMs, snap.Spans)
	}
	if snap.Dominant != "wal-fsync" {
		t.Errorf("one-writer dominant phase = %q, want wal-fsync", snap.Dominant)
	}
}

func uitoa(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestStitchedAnalyticsAttribution traces a stitched BFS through the
// facade: the propagate-on-demand wait, the watermark barrier and the
// pinned composite build each record a stitch-phase span.
func TestStitchedAnalyticsAttribution(t *testing.T) {
	db, err := h2tap.Open(h2tap.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tx, err := db.BeginSharded()
	if err != nil {
		t.Fatal(err)
	}
	a, err := tx.AddNode("A", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tx.AddNode("B", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.AddRel(a, b, "x", 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tr := obs.NewReqTracer(8, 8)
	rq := tr.Start("stitch")
	res, err := db.RunAnalyticsStitchedTraced(h2tap.BFS, a, rq)
	rq.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != 1 {
		t.Fatalf("composite has %d edges, want 1", res.Edges)
	}
	recent := tr.Snapshot().Recent
	if len(recent) != 1 {
		t.Fatalf("retained %d traces, want 1", len(recent))
	}
	snap := recent[0]
	requireSpans(t, snap, "stitch.propagate", "stitch.barrier", "stitch.build")
	for _, sp := range snap.Spans {
		if strings.HasPrefix(sp.Name, "stitch.") && sp.Phase != "stitch" {
			t.Errorf("span %q in phase %q, want stitch", sp.Name, sp.Phase)
		}
	}
}
