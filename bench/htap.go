package main

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"h2tap"
)

const (
	// htapRate is the open-loop update rate, transactions per second. The
	// updater is delayed while the collector and the propagation workers hold
	// both cores, and commit_p95_us should lie inside those stretches, not on
	// their edge, while the updater still keeps up during them. At ISSUE.md's
	// 20 000/s they were 7–9 % of the window on the dynamic replica: the
	// latency distribution climbed from 30 µs at p90 to 3 ms at p95, and the
	// median of ten runs moved from 3.0 ms to 5.3 ms when the box ran a fifth
	// slower. At 40 000/s the p95 was 7 ms and 8.3 ms, but on the slower box
	// one run in three fell behind its schedule during the mark phases (12 to
	// 16 ms). 30 000/s reads 4.8 ms and 5.7 ms, and no run fell behind.
	htapRate = 30_000.0
)

func runHTAPStatic(c *runCtx)  { runHTAP(c, h2tap.StaticCSR) }
func runHTAPDynamic(c *runCtx) { runHTAP(c, h2tap.DynamicHash) }

// openLoop sends ops on a fixed schedule: op i is due at start + i×interval
// whatever happened to the ops before it, and its latency is charged from
// that due time, so a stall is paid by every request it delayed. send is
// called with the due time and the time it is really sent; wait blocks until
// a given time.
func openLoop(n int, interval float64, start int64, lag *samples, wait func(until int64), send func(i int, due, sent int64)) {
	for i := 0; i < n; i++ {
		due := start + int64(float64(i)*interval)
		wait(due)
		sent := now()
		lag.add(sent, float64(sent-due))
		send(i, due, sent)
	}
}

// spinUntil waits by reading the clock, neither sleeping nor yielding. A
// timer sleep on the sizing box overshoots by about 0.7 ms, fourteen schedule
// slots at htapRate, and a sleeping generator woken while both cores run
// propagation waits for a scheduler slot (measured: a 17 ms p95 that says
// nothing about the engine). A yielding spin hands its core to a propagation
// worker for the worker's whole run, which puts 5 % of the commits behind a
// millisecond stall — exactly at the p95, so the metric flips between 25 µs
// and 1.5 ms from run to run. The update client therefore holds its core the
// way an OLTP deployment isolates its transaction cores; what reaches it is
// GC and the scheduler's forced preemption, and that is what commit_p95_us
// and client.commit_p99_us show on htap-*.
func spinUntil(until int64) {
	for now() < until {
	}
}

// runHTAP: client 0 is an open-loop updater in the §6.3 mix at htapRate,
// client 1 a closed-loop analyst with zero think time running BFS from
// seeded sources; the same inputs and schedule for either replica kind.
func runHTAP(c *runCtx, replica h2tap.ReplicaKind) {
	n := c.n(htapRate, 100) // per set
	for set := 0; set < c.runSets(); set++ {
		var script []op
		c.volatileSet(c.size(large), replica,
			func(ds *snb) ([]*client, bool) {
				script = mixedScript(rand.New(rand.NewSource(c.seed*31)), ds.hiDeg(), ds.Posts, n)
				c.probeScript = script
				return []*client{newClient(0, n, 0, c.trace, true)}, true
			},
			func(db *h2tap.DB, ds *snb, cls []*client) []window {
				src := c.sources(ds)
				begin := func() *h2tap.Tx { return db.Begin() }
				var done atomic.Bool
				var wg sync.WaitGroup
				wg.Add(1)
				go func() { // the analyst
					defer wg.Done()
					for i := 0; !done.Load(); i++ {
						c.bfs(db, src[i%len(src)])
					}
				}()
				up := cls[0]
				openLoop(n, 1e9/htapRate, now(), up.lag, spinUntil, func(i int, due, sent int64) {
					up.update(begin, &script[i], due, sent)
				})
				done.Store(true)
				wg.Wait()
				return nil
			})
	}
}
