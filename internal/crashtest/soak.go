package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"h2tap"
	"h2tap/internal/faultinject"
	"h2tap/internal/shard"
	"h2tap/internal/vfs"
)

// Randomized shard-fault storm: concurrent single- and cross-shard
// committers plus a stitched-analytics reader hammer a 3-shard cluster while
// a chaos controller repeatedly crashes or fails one fault domain at a time
// (a shard's directory, or the 2PC coordinator log), waits for the
// quarantine to latch, heals the simulated device and recovers the victim
// online — all without restarting the cluster. This is the concurrency
// counterpart of the deterministic enumerations: the same invariants, but
// raced under -race against live traffic and core swaps.
//
// Each writer owns its nodes and writes a monotonically increasing counter,
// so the end-of-storm ledger check needs no cross-goroutine coordination:
// every node's final value must be in [last acked, last attempted] — acked
// writes are never lost, nothing is fabricated, and an errored write may
// surface only if its log record became durable before the fault (lost
// ack). Cross-shard pairs must additionally agree: their two halves carry
// the same counter, so a torn 2PC commit would show unequal values.

// StormConfig parameterizes ShardStorm. Zero values select the defaults in
// parentheses.
type StormConfig struct {
	Dir      string        // storm directory (required)
	Writers  int           // single-shard writers per shard (2)
	Cross    int           // cross-shard writer goroutines (3)
	Duration time.Duration // storm length (2s)
	Seed     int64         // chaos RNG seed (1)
}

// StormReport summarizes a storm.
type StormReport struct {
	Acked      int64 // committed transactions (single + cross)
	CrossAcked int64 // committed cross-shard transactions
	Sheds      int64 // structured sheds (ErrShardDown / ErrCoordinatorDown)
	OtherErrs  int64 // raw injected errors surfaced mid-quarantine
	Stitches   int64 // successful stitched analytics runs
	Degraded   int64 // stitches that excluded a down shard

	ShardFaults int64 // injected shard-scoped faults
	CoordFaults int64 // injected coordinator-scoped faults
	Recoveries  int64 // successful online RecoverShard calls
	RecoveryMax time.Duration
	RecoverySum time.Duration
}

// stormNode is one writer-owned cell of the ledger. Only its writer
// mutates it; the final check reads it after the writer's goroutine joins.
type stormNode struct {
	node        uint64
	key         string
	lastAcked   int64
	lastAttempt int64
	pair        *stormNode // other half of a cross-shard pair, nil for single
}

// ShardStorm runs the randomized fault storm and verifies the ledger, the
// stitched view and durable convergence at the end.
func ShardStorm(cfg StormConfig) (*StormReport, error) {
	if cfg.Writers <= 0 {
		cfg.Writers = 2
	}
	if cfg.Cross <= 0 {
		cfg.Cross = 3
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rep := &StormReport{}

	ffs := faultinject.New(vfs.OS())
	need := cfg.Writers + cfg.Cross + 2 // own nodes per shard: singles, cross halves, analytics src
	db, perShard, err := sfSetupN(cfg.Dir, ffs, need)
	if err != nil {
		return nil, fmt.Errorf("storm setup: %w", err)
	}
	defer db.Close()
	c := db.Cluster()

	// Carve writer-owned nodes out of the per-shard pools.
	var cells []*stormNode
	singles := make([]*stormNode, 0, sfShards*cfg.Writers)
	for s := 0; s < sfShards; s++ {
		for w := 0; w < cfg.Writers; w++ {
			n := &stormNode{node: perShard[s][w], key: "n"}
			singles = append(singles, n)
			cells = append(cells, n)
		}
	}
	crossPairs := make([][2]*stormNode, 0, cfg.Cross)
	for w := 0; w < cfg.Cross; w++ {
		s1, s2 := w%sfShards, (w+1)%sfShards
		a := &stormNode{node: perShard[s1][cfg.Writers+w/sfShards], key: fmt.Sprintf("c%d", w)}
		b := &stormNode{node: perShard[s2][cfg.Writers+w/sfShards], key: fmt.Sprintf("c%d", w)}
		a.pair, b.pair = b, a
		crossPairs = append(crossPairs, [2]*stormNode{a, b})
		cells = append(cells, a, b)
	}

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		acked    atomic.Int64
		xacked   atomic.Int64
		sheds    atomic.Int64
		otherEs  atomic.Int64
		stitches atomic.Int64
		degraded atomic.Int64
		anErr    atomic.Pointer[error]
	)
	classify := func(err error) {
		if errors.Is(err, shard.ErrShardDown) || errors.Is(err, shard.ErrCoordinatorDown) {
			sheds.Add(1)
		} else {
			// A fault can surface raw (mid-commit, before the quarantine
			// latched); the ledger check at the end is what proves these
			// never corrupted anything.
			otherEs.Add(1)
		}
	}

	// Single-shard writers.
	for _, cell := range singles {
		cell := cell
		wg.Add(1)
		go func() {
			defer wg.Done()
			for val := int64(1); ; val++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := db.BeginSharded()
				if err != nil {
					classify(err)
					continue
				}
				cell.lastAttempt = val
				if err := tx.SetNodeProp(cell.node, cell.key, h2tap.Int(val)); err != nil {
					tx.Abort() //nolint:errcheck
					classify(err)
					continue
				}
				if err := tx.Commit(); err != nil {
					classify(err)
					continue
				}
				cell.lastAcked = val
				acked.Add(1)
			}
		}()
	}
	// Cross-shard writers: both halves get the same counter in one 2PC
	// transaction.
	for _, pair := range crossPairs {
		a, b := pair[0], pair[1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for val := int64(1); ; val++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := db.BeginSharded()
				if err != nil {
					classify(err)
					continue
				}
				a.lastAttempt, b.lastAttempt = val, val
				err = tx.SetNodeProp(a.node, a.key, h2tap.Int(val))
				if err == nil {
					err = tx.SetNodeProp(b.node, b.key, h2tap.Int(val))
				}
				if err != nil {
					tx.Abort() //nolint:errcheck
					classify(err)
					continue
				}
				if err := tx.Commit(); err != nil {
					classify(err)
					continue
				}
				a.lastAcked, b.lastAcked = val, val
				acked.Add(1)
				xacked.Add(1)
			}
		}()
	}
	// Stitched-analytics reader: the healthy subgraph must keep serving
	// throughout the storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := perShard[0][need-1]
		for {
			select {
			case <-stop:
				return
			default:
			}
			st, err := db.RunAnalyticsStitched(h2tap.BFS, src)
			if err != nil {
				// Every shard down at once (overlapping quarantines: latches
				// are lazy and a racing commit may re-quarantine a shard the
				// controller just recovered) sheds the whole stitch; anything
				// else is a real failure.
				if errors.Is(err, shard.ErrShardDown) {
					sheds.Add(1)
					time.Sleep(2 * time.Millisecond)
					continue
				}
				e := fmt.Errorf("stitched analytics during storm: %w", err)
				anErr.CompareAndSwap(nil, &e)
				return
			}
			stitches.Add(1)
			if len(st.Excluded) > 0 {
				degraded.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Chaos controller: one victim at a time, heal + online recovery, repeat.
	rng := rand.New(rand.NewSource(cfg.Seed))
	deadline := time.Now().Add(cfg.Duration)
	tears := []faultinject.TearMode{faultinject.TearNone, faultinject.TearHalf, faultinject.TearAll}
	var stormErr error
	for time.Now().Before(deadline) && stormErr == nil {
		time.Sleep(time.Duration(5+rng.Intn(20)) * time.Millisecond)
		if rng.Float64() < 0.25 {
			// Coordinator fault: cross-shard commits must latch off while
			// single-shard traffic continues; RecoverCoordinator repairs it.
			rep.CoordFaults++
			ffs.SetScope(coordPath(cfg.Dir))
			if rng.Float64() < 0.5 {
				ffs.FailIn(1 + int64(rng.Intn(4)))
			} else {
				ffs.CrashIn(1+int64(rng.Intn(4)), tears[rng.Intn(len(tears))])
			}
			waitUntil(2*time.Second, func() bool { return c.CoordErr() != nil })
			ffs.Heal()
			if c.CoordErr() != nil {
				if err := db.RecoverCoordinator(); err != nil {
					stormErr = fmt.Errorf("RecoverCoordinator: %w", err)
				}
			}
			continue
		}
		victim := rng.Intn(sfShards)
		rep.ShardFaults++
		ffs.SetScope(sfShardDir(cfg.Dir, victim))
		if rng.Float64() < 0.3 {
			ffs.FailIn(1 + int64(rng.Intn(24)))
		} else {
			ffs.CrashIn(1+int64(rng.Intn(24)), tears[rng.Intn(len(tears))])
		}
		down := waitUntil(2*time.Second, func() bool {
			st, _ := c.Domain(victim).Health()
			return st == shard.ShardDown
		})
		// Let traffic shed against the quarantined shard for a moment.
		if down {
			time.Sleep(time.Duration(2+rng.Intn(10)) * time.Millisecond)
		}
		ffs.Heal()
		if st, _ := c.Domain(victim).Health(); st == shard.ShardDown {
			t0 := time.Now()
			if err := db.RecoverShard(victim); err != nil {
				stormErr = fmt.Errorf("RecoverShard(%d): %w", victim, err)
				break
			}
			lat := time.Since(t0)
			rep.Recoveries++
			rep.RecoverySum += lat
			if lat > rep.RecoveryMax {
				rep.RecoveryMax = lat
			}
		}
	}

	// Wind down: stop the traffic first (an in-flight cross-shard commit
	// that raced a recovery may re-quarantine its shard, by design), then
	// heal and bring every domain back.
	close(stop)
	wg.Wait()
	ffs.Heal()
	if stormErr == nil {
		// Coordinator first: its reconciliation may quarantine shards whose
		// in-memory abort contradicts a durably committed decision; the shard
		// loop below then recovers them.
		if c.CoordErr() != nil {
			if err := db.RecoverCoordinator(); err != nil {
				stormErr = fmt.Errorf("final RecoverCoordinator: %w", err)
			}
		}
	}
	if stormErr == nil {
		for i := 0; i < sfShards; i++ {
			if st, _ := c.Domain(i).Health(); st == shard.ShardDown {
				if err := db.RecoverShard(i); err != nil {
					stormErr = fmt.Errorf("final RecoverShard(%d): %w", i, err)
				} else {
					rep.Recoveries++
				}
			}
		}
	}
	rep.Acked = acked.Load()
	rep.CrossAcked = xacked.Load()
	rep.Sheds = sheds.Load()
	rep.OtherErrs = otherEs.Load()
	rep.Stitches = stitches.Load()
	rep.Degraded = degraded.Load()
	if stormErr != nil {
		return rep, stormErr
	}
	if p := anErr.Load(); p != nil {
		return rep, *p
	}
	if rep.Acked == 0 || rep.CrossAcked == 0 {
		return rep, fmt.Errorf("storm made no progress (acked %d, cross %d)", rep.Acked, rep.CrossAcked)
	}

	// Everything healthy, stitch covers the whole cluster again.
	for i := 0; i < sfShards; i++ {
		if st, cause := c.Domain(i).Health(); st != shard.ShardHealthy {
			return rep, fmt.Errorf("shard %d ended the storm %s: %v", i, st, cause)
		}
	}
	st, err := db.RunAnalyticsStitched(h2tap.WCC, perShard[0][0])
	if err != nil {
		return rep, fmt.Errorf("final stitch: %w", err)
	}
	if len(st.Excluded) != 0 {
		return rep, fmt.Errorf("final stitch excludes shards %v after full recovery", st.Excluded)
	}

	// Ledger on the live cluster, then again after a cold restart.
	if err := stormLedgerCheck(db, cells); err != nil {
		return rep, err
	}
	if err := db.Close(); err != nil {
		return rep, fmt.Errorf("close: %w", err)
	}
	db2, err := h2tap.Open(h2tap.Options{Shards: sfShards, PersistDir: cfg.Dir})
	if err != nil {
		return rep, fmt.Errorf("restart: %w", err)
	}
	defer db2.Close()
	if err := stormLedgerCheck(db2, cells); err != nil {
		return rep, fmt.Errorf("after restart: %w", err)
	}
	return rep, nil
}

// stormLedgerCheck verifies every writer-owned cell: acked never lost,
// nothing fabricated, cross-shard halves agree.
func stormLedgerCheck(db *h2tap.DB, cells []*stormNode) error {
	tx, err := db.BeginSharded()
	if err != nil {
		return fmt.Errorf("ledger begin: %w", err)
	}
	defer tx.Abort() //nolint:errcheck // read-only
	vals := make(map[*stormNode]int64, len(cells))
	for _, cell := range cells {
		v, err := tx.GetNodeProp(cell.node, cell.key)
		if err != nil {
			return fmt.Errorf("ledger read node %d: %w", cell.node, err)
		}
		got := v.AsInt()
		vals[cell] = got
		if got < cell.lastAcked {
			return fmt.Errorf("node %d key %s: value %d below last acked %d (acked commit lost)",
				cell.node, cell.key, got, cell.lastAcked)
		}
		if got > cell.lastAttempt {
			return fmt.Errorf("node %d key %s: value %d beyond last attempt %d (fabricated write)",
				cell.node, cell.key, got, cell.lastAttempt)
		}
	}
	for _, cell := range cells {
		if cell.pair != nil && vals[cell] != vals[cell.pair] {
			return fmt.Errorf("cross-shard pair %d/%d: halves disagree (%d vs %d) — 2PC atomicity violated",
				cell.node, cell.pair.node, vals[cell], vals[cell.pair])
		}
	}
	return nil
}

// waitUntil polls cond every millisecond up to d.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}
