package main

import (
	"math"
	"math/rand"
	"sync"

	"h2tap"
)

const (
	burstOps   = 7_500  // per client: ≈ 19 k delta records per propagation
	burstRate  = 33_750 // update transactions per client per nominal second: 12 bursts a set
	hotkeyRate = 9_375  // 50 000 updates per client per set
	// hotkeyDrains is how many BFS calls client 0 spreads over its script in
	// a set: three sets give the pass 210 calls, enough for a p95.
	hotkeyDrains = 70
)

// sources are the BFS sources of a set: a seeded draw of Persons, wide
// enough that every run sees the same mix of cheap and dear traversals (the
// kernel's cost from one Person to the next differs by up to 2×, so a
// handful of sources would make the median a property of the seed).
func (c *runCtx) sources(ds *snb) []uint64 {
	r := rand.New(rand.NewSource(c.seed*977 + 5))
	out := make([]uint64, 256)
	for i := range out {
		out[i] = ds.Persons[r.Intn(len(ds.Persons))]
	}
	return out
}

// runTxnBurst: per set, bursts of 2 closed-loop clients × burstOps single-op
// transactions in the §6.3 mix over disjoint halves of the HiDeg window,
// each burst followed by one BFS on the quiescent system — a large-batch
// propagation.
func runTxnBurst(c *runCtx) {
	perClient := c.n(burstRate, 200)
	bursts := int(math.Round(float64(perClient) / burstOps))
	if bursts < 1 {
		bursts = 1
	}
	perBurst := perClient / bursts
	for set := 0; set < c.runSets(); set++ {
		scripts := make([][]op, clients)
		c.volatileSet(c.size(small), h2tap.StaticCSR,
			func(ds *snb) ([]*client, bool) {
				cls := make([]*client, clients)
				for i := range cls {
					r := rand.New(rand.NewSource(c.seed*31 + int64(i)))
					scripts[i] = mixedScript(r, split(ds.hiDeg(), i), ds.Posts, perBurst*bursts)
					c.probeScript = scripts[0]
					cls[i] = newClient(i, len(scripts[i]), 0, c.trace, false)
				}
				return cls, true
			},
			func(db *h2tap.DB, ds *snb, cls []*client) []window {
				src := c.sources(ds)
				begin := func() *h2tap.Tx { return db.Begin() }
				ws := make([]window, bursts)
				for b := 0; b < bursts; b++ {
					ws[b].start = now()
					var wg sync.WaitGroup
					for i, cl := range cls {
						wg.Add(1)
						go func(cl *client, ops []op) {
							defer wg.Done()
							for j := range ops {
								t := now()
								cl.update(begin, &ops[j], t, t)
							}
						}(cl, scripts[i][b*perBurst:(b+1)*perBurst])
					}
					wg.Wait()
					ws[b].end = now()
					c.bfs(db, src[b%len(src)])
				}
				return ws
			})
	}
}

// runTxnHotkey: 2 closed-loop clients, each 4 updates (80 % InsertRel, 20 %
// DeleteRel) then 1 read-only neighbour walk, Persons drawn Zipf by degree
// rank from one shared distribution, so writers meet writers and readers on
// the hot adjacency lists. Client 0 runs hotkeyDrains BFS calls spread over
// its script, which drains the delta store the way Propagate() would and gives
// the analytics and freshness metrics their samples.
func runTxnHotkey(c *runCtx) {
	updates := c.n(hotkeyRate, 80) // per client per set
	updates -= updates % 4
	drain := updates / hotkeyDrains
	if drain < 4 {
		drain = 4
	}
	for set := 0; set < c.runSets(); set++ {
		scripts := make([][]op, clients)
		readAt := make([][]uint64, clients)
		c.volatileSet(c.size(small), h2tap.StaticCSR,
			func(ds *snb) ([]*client, bool) {
				cls := make([]*client, clients)
				for i := range cls {
					r := rand.New(rand.NewSource(c.seed*131 + int64(i)))
					persons := ds.zipfPersons(r, updates)
					ops := make([]op, updates)
					for j, p := range persons {
						ops[j] = op{kind: insertRel, src: p, dst: ds.Posts[r.Intn(len(ds.Posts))], w: 1}
						if r.Intn(5) == 0 {
							ops[j].kind = deleteRel
						}
					}
					scripts[i] = ops
					c.probeScript = scripts[0]
					readAt[i] = ds.zipfPersons(r, updates/4)
					cls[i] = newClient(i, updates, updates/4, c.trace, false)
				}
				return cls, false // this workload interleaves its own reads
			},
			func(db *h2tap.DB, ds *snb, cls []*client) []window {
				src := c.sources(ds)
				begin := func() *h2tap.Tx { return db.Begin() }
				var wg sync.WaitGroup
				for i, cl := range cls {
					wg.Add(1)
					go func(i int, cl *client) {
						defer wg.Done()
						ops := scripts[i]
						for j := range ops {
							t := now()
							cl.update(begin, &ops[j], t, t)
							if j%4 == 3 {
								cl.readTxs(begin, readAt[i][j/4:j/4+1])
							}
							if i == 0 && j%drain == drain-1 {
								c.bfs(db, src[(j/drain)%len(src)])
							}
						}
					}(i, cl)
				}
				wg.Wait()
				return nil
			})
	}
}
