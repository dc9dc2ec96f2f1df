// Group-commit crash enumeration: concurrent committers share WAL batches
// (their records persist in one write+fsync) while a checkpointer races
// Rotate against them, and a crash is injected at every persist point — so
// every boundary and torn state of a multi-transaction batch write gets
// tear-tested, including the batch that a rotation moved onto a fresh log.
//
// The concurrent workload is nondeterministic (which commits share a batch
// depends on scheduling), so the invariants are set-based rather than
// fingerprint-based:
//
//   - Acked durability: every commit that reported success is recovered.
//   - No invention: every recovered commit was at least started (a torn
//     batch may persist a prefix of in-flight, unacked commits — rewind
//     guarantees no acked record is lost, not that unacked ones vanish).
//   - Per-committer prefix: each worker commits sequentially, so its
//     recovered commits are a contiguous prefix of its sequence — a later
//     commit recovered without an earlier one would mean the log reordered
//     or dropped an acked record.
//   - Service resumes (commit, propagate, replica equals a fresh CSR,
//     checkpoint), and the post-recovery commit survives a second restart.

package crashtest

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"h2tap"
	"h2tap/internal/faultinject"
	"h2tap/internal/vfs"
)

// gcWorkers/gcPerWorker size the concurrent workload: enough committers
// that batches form under the slowed fsync, small enough that the
// enumeration over every persist point stays minutes, not hours.
const (
	gcWorkers   = 4
	gcPerWorker = 5
	// gcFsyncDelay slows fsync so committers pile into shared batches
	// (without it, a fast host drains every committer in single-record
	// batches and the multi-record crash states never occur).
	gcFsyncDelay = 200 * time.Microsecond
)

// gcMark identifies one worker commit: worker w's i-th transaction.
type gcMark struct{ w, i int }

// gcProgress is the crash-surviving record of the concurrent run: which
// commits were started (Commit called) and which were acked (Commit
// returned nil).
type gcProgress struct {
	mu      sync.Mutex
	started map[gcMark]bool
	acked   map[gcMark]bool
}

func (p *gcProgress) start(m gcMark) {
	p.mu.Lock()
	p.started[m] = true
	p.mu.Unlock()
}

func (p *gcProgress) ack(m gcMark) {
	p.mu.Lock()
	p.acked[m] = true
	p.mu.Unlock()
}

// groupCommitWorkload runs gcWorkers concurrent committers (each tagging
// its nodes with its worker/sequence identity) against a durable database
// on fsys, with a checkpointer rotating the log underneath them. It returns
// the progress record; the workload's own error is irrelevant to the
// enumeration (a crash surfaces somewhere), the durable state is what gets
// checked.
func groupCommitWorkload(dir string, fsys vfs.FS, p *gcProgress) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("crashtest: group-commit workload panic: %v", r)
		}
	}()
	db, err := h2tap.Open(h2tap.Options{
		PersistDir: dir,
		SyncWAL:    true,
		FS:         fsys,
	})
	if err != nil {
		return err
	}
	defer db.Close()

	var wg sync.WaitGroup
	for w := 0; w < gcWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < gcPerWorker; i++ {
				m := gcMark{w: w, i: i}
				tx := db.Begin()
				if _, err := tx.AddNode("W", map[string]h2tap.Value{
					"w": h2tap.Int(int64(w)), "i": h2tap.Int(int64(i)),
				}); err != nil {
					tx.Abort()
					return
				}
				p.start(m)
				if err := tx.Commit(); err != nil {
					return // crashed log: stop, later commits never started
				}
				p.ack(m)
			}
		}(w)
	}
	// The checkpointer races Rotate (commit barrier + snapshot + log swap)
	// against the batching committers. Errors end it — after a crash every
	// persist op fails.
	ckDone := make(chan error, 1)
	go func() {
		for k := 0; k < 3; k++ {
			if err := db.Checkpoint(); err != nil {
				ckDone <- err
				return
			}
		}
		ckDone <- nil
	}()
	wg.Wait()
	ckErr := <-ckDone
	if err := db.Close(); err != nil {
		return err
	}
	return ckErr
}

// recoverAndCheckGC re-opens the crashed database on the real filesystem
// and asserts the group-commit recovery invariants.
func recoverAndCheckGC(dir string, p *gcProgress) (int, error) {
	db, err := h2tap.Open(h2tap.Options{PersistDir: dir})
	if err != nil {
		return -1, fmt.Errorf("recovery open: %w", err)
	}
	defer db.Close()

	// Collect the recovered marks from the worker-tagged nodes.
	recovered := make(map[gcMark]bool)
	perWorker := make(map[int]int)
	nodes, _ := db.Store().ExportAt(db.Store().Oracle().LastCommitted())
	for i := range nodes {
		n := &nodes[i]
		if n.Label != "W" {
			continue
		}
		w, okW := n.Props["w"]
		seq, okI := n.Props["i"]
		if !okW || !okI {
			return -1, fmt.Errorf("recovered worker node %d lost its tags: %v", n.ID, n.Props)
		}
		m := gcMark{w: int(w.AsInt()), i: int(seq.AsInt())}
		recovered[m] = true
		perWorker[m.w]++
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	for m := range p.acked {
		if !recovered[m] {
			return len(recovered), fmt.Errorf("acked commit w%d/i%d lost in recovery", m.w, m.i)
		}
	}
	for m := range recovered {
		if !p.started[m] {
			return len(recovered), fmt.Errorf("recovered commit w%d/i%d was never started", m.w, m.i)
		}
	}
	// Contiguity: worker w recovered n commits => they are exactly 0..n-1.
	for w, n := range perWorker {
		for i := 0; i < n; i++ {
			if !recovered[gcMark{w: w, i: i}] {
				return len(recovered), fmt.Errorf("worker %d recovered %d commits but is missing i=%d (reordered or dropped record)", w, n, i)
			}
		}
	}

	return len(recovered), resumeService(db, dir, func(tx *h2tap.Tx) error {
		_, err := tx.AddNode("Probe", nil)
		return err
	})
}

// RunGroupCommitPoint crashes the concurrent workload at the given persist
// operation and checks the group-commit invariants.
func RunGroupCommitPoint(dir string, point int64, tear faultinject.TearMode) Result {
	ffs := faultinject.New(vfs.SlowSync(vfs.OS(), gcFsyncDelay))
	ffs.CrashAt(point, tear)
	p := &gcProgress{started: make(map[gcMark]bool), acked: make(map[gcMark]bool)}
	_ = groupCommitWorkload(dir, ffs, p)

	res := Result{Point: point, Tear: tear, Completed: len(p.acked), Recovered: -1}
	res.Recovered, res.Err = recoverAndCheckGC(dir, p)
	return res
}

// EnumerateGroupCommit counts the concurrent workload's persist points with
// one clean run, then crashes a run at every point (or an evenly spaced
// sample of maxPerMode points per tear mode) for each tear mode. Scheduling
// makes the op count vary slightly run to run; points past a given run's
// actual count simply never fire and the invariants are checked against the
// completed run — still a valid (crash-free) case.
func EnumerateGroupCommit(baseDir string, maxPerMode int, tears []faultinject.TearMode) (*Report, error) {
	cfs := faultinject.New(vfs.SlowSync(vfs.OS(), gcFsyncDelay))
	p := &gcProgress{started: make(map[gcMark]bool), acked: make(map[gcMark]bool)}
	if err := groupCommitWorkload(filepath.Join(baseDir, "golden"), cfs, p); err != nil {
		return nil, fmt.Errorf("crashtest: group-commit clean run: %w", err)
	}
	if len(p.acked) != gcWorkers*gcPerWorker {
		return nil, fmt.Errorf("crashtest: clean run acked %d commits, want %d", len(p.acked), gcWorkers*gcPerWorker)
	}
	points := cfs.Ops()
	if len(tears) == 0 {
		tears = []faultinject.TearMode{faultinject.TearAll, faultinject.TearHalf}
	}
	rep := &Report{Points: points}
	for _, tear := range tears {
		for _, pt := range samplePoints(points, maxPerMode) {
			dir := filepath.Join(baseDir, fmt.Sprintf("gc%04d-%s", pt, tear))
			res := RunGroupCommitPoint(dir, pt, tear)
			rep.Results = append(rep.Results, res)
			if res.Err != nil {
				rep.Failures++
			}
		}
	}
	return rep, nil
}
