package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"h2tap"
	"h2tap/internal/server"
)

const (
	httpRate       = 220.0 // requests per client per nominal second, a little under what the pinned device sustains
	analyticsEvery = 10    // every 10th request of a client is POST /v1/analytics
	httpPoolSize   = 32 << 20

	deltaChunk           = 8192 // records in one chunk of the delta table (deltastore's chunkShift)
	httpRecordsPerCommit = 4    // two nodes and two relationships
)

// durableFS is the device model of the durable workloads under the counting
// wrapper.
func (c *runCtx) durableFS() *countFS {
	return newCountFS(pinnedDevice(), c.trace)
}

// httpClient is one keep-alive connection and its acked-commit ledger.
type httpClient struct {
	*client
	hc      *http.Client
	url     string
	session string
	buf     bytes.Buffer
	lastA   uint64 // nodes the previous acked commit created: the targets of
	lastB   uint64 // this request's relationships, so no edge can be a duplicate
	ledger  []httpAck
	shed    int64
	waitMs  []float64
}

// httpAck is one acknowledged commit: two nodes created, two relationships
// from seeded Persons to the nodes the previous commit created.
type httpAck struct{ a, b, p, pa, q, qb uint64 }

type commitReply struct {
	TS      uint64 `json:"ts"`
	Results []struct {
		Node *uint64 `json:"node"`
	} `json:"results"`
}

type analyticsReply struct {
	KernelSimUs   int64          `json:"kernel_sim_us"`
	HostWallUs    int64          `json:"host_wall_us"`
	PropagationUs int64          `json:"propagation_us"`
	Digest        map[string]any `json:"digest"`
}

// post sends one request and decodes a 200 reply into out. A non-2xx status
// is reported as shed (admission rejections) or as an error.
func (h *httpClient) post(path string, body []byte, out any) (shed bool, err error) {
	req, err := http.NewRequest(http.MethodPost, h.url+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Session-ID", h.session)
	resp, err := h.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		shed = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		return shed, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return false, json.Unmarshal(raw, out)
}

// postCommit posts one /v1/commit: 2 add-node + 2 add-rel. measured is false
// for the warm-up request that opens the connection and creates the first
// pair of relationship targets (nodes only).
func (h *httpClient) postCommit(p, q uint64, measured bool) {
	h.buf.Reset()
	h.buf.WriteString(`{"ops":[{"op":"add-node","label":"Person"},{"op":"add-node","label":"Post"}`)
	wantResults := 2
	if measured {
		fmt.Fprintf(&h.buf, `,{"op":"add-rel","src":%d,"dst":%d,"label":"knows"},{"op":"add-rel","src":%d,"dst":%d,"label":"likes"}`,
			p, h.lastA, q, h.lastB)
		wantResults = 4
	}
	h.buf.WriteString(`]}`)
	var rep commitReply
	t0 := now()
	shed, err := h.post("/v1/commit", h.buf.Bytes(), &rep)
	end := now()
	if measured {
		h.attempted++
	}
	if err != nil || len(rep.Results) != wantResults || rep.Results[0].Node == nil || rep.Results[1].Node == nil {
		if shed {
			h.shed++
		}
		if err == nil {
			err = fmt.Errorf("/v1/commit: malformed reply")
		}
		h.fail(err)
		return
	}
	a, b := *rep.Results[0].Node, *rep.Results[1].Node
	prevA, prevB := h.lastA, h.lastB
	h.lastA, h.lastB = a, b
	if !measured {
		return
	}
	h.ledger = append(h.ledger, httpAck{a: a, b: b, p: p, pa: prevA, q: q, qb: prevB})
	h.committed++
	h.commit.add(end, float64(end-t0))
	h.acks = append(h.acks, ackRec{at: end})
	traced := h.traceThis()
	h.noteOverhead(traced, float64(end-t0))
	if traced {
		h.txs = append(h.txs, txTrace{t0: t0, t1: t0, t2: t0, t3: end, ops: 4, client: int32(h.id)})
	}
}

func (c *runCtx) httpAnalytics(h *httpClient, src uint64) {
	body := fmt.Sprintf(`{"kind":"bfs","src":%d,"wait":true}`, src)
	var rep analyticsReply
	start := now()
	shed, err := h.post("/v1/analytics", []byte(body), &rep)
	end := now()
	if shed {
		h.shed++
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	reach, _ := rep.Digest["reachable"].(float64)
	if err != nil || reach < 1 {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf("analytics over HTTP: reachable=%v err=%v", reach, err))
		return
	}
	c.analytics.add(end, float64(end-start))
	c.anaLog = append(c.anaLog, anaRec{start: start, end: end})
	h.waitMs = append(h.waitMs, float64(end-start)/1e6-float64(rep.PropagationUs+rep.HostWallUs)/1e3)
	if c.trace {
		c.results = append(c.results, resultRec{wall: time.Duration(end - start),
			hostWall: time.Duration(rep.HostWallUs) * time.Microsecond, kernelSim: time.Duration(rep.KernelSimUs) * time.Microsecond})
	}
}

// runHTTPDurable: a durable database (synced WAL, one fsync per group-commit
// batch, pinned device) behind an in-process server; 2 keep-alive
// connections in a closed loop posting /v1/commit, every analyticsEvery-th
// request a waited BFS, which overlaps the other connection's commits; then
// drain, close, reopen without a checkpoint, verify the acked ledger,
// checkpoint.
//
// The analytics ticket runs on the engine's queue goroutine, where the
// harness cannot survive the reserve-vs-scan race surviveScanRace describes:
// if it fires there the process dies and the run prints no result. The race
// needs a commit that opens a new chunk of the delta table (deltaChunk
// records) while a scan starts, so a set stays inside the table's first
// chunk: four sets of 1 584 commits, four records each, where three sets of
// 2 112 crossed into the second chunk once a set and one run in fifty died.
func runHTTPDurable(c *runCtx) {
	perClient := c.n(httpRate, 20)
	if records := clients * (perClient - perClient/analyticsEvery + 1) * httpRecordsPerCommit; records > deltaChunk {
		fmt.Fprintf(os.Stderr, "bench: http-durable: a set appends %d delta records, more than one chunk of %d: "+
			"the engine's reserve-vs-scan race (ROADMAP item 1) can end this run\n", records, deltaChunk)
	}
	for set := 0; set < c.runSets(); set++ {
		c.httpSet(set, perClient)
	}
}

func (c *runCtx) httpSet(set, perClient int) {
	dir := filepath.Join(c.workDir, fmt.Sprintf("http-%d-%v", set, c.trace))
	defer os.RemoveAll(dir)
	fs := c.durableFS()
	opts := h2tap.Options{PersistDir: dir, PersistPoolSize: c.poolSize(httpPoolSize), SyncWAL: true, FS: fs}
	if c.trace {
		opts.OnPropagation = c.onCycle
	}

	// Set-up: generate, load and checkpoint (a bulk load is not logged, the
	// checkpoint makes it durable), start the engine, start the server and
	// open both connections with one unmeasured commit each.
	runtime.GC() // every set-up starts from a collected heap, as a fresh process would
	t0 := now()
	ds := generateSNB(c.size(small), c.seed)
	r := rand.New(rand.NewSource(c.seed*53 + int64(set)))
	picks := make([]uint64, 2*clients*(perClient+1))
	for i := range picks {
		picks[i] = ds.Persons[r.Intn(len(ds.Persons))]
	}
	hcs := make([]*httpClient, clients)
	for i := range hcs {
		hcs[i] = &httpClient{
			client:  newClient(i, perClient, 0, c.trace, false),
			hc:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
			session: fmt.Sprintf("bench-%d", i),
			lastA:   ds.Posts[i], lastB: ds.Posts[clients+i],
		}
	}
	t1 := now()
	heap0 := liveHeap()
	t2 := now()
	db, err := h2tap.Open(opts)
	c.must(err, "open durable")
	c.must(db.BulkLoad(ds.Nodes, ds.Edges), "bulk load")
	c.must(db.Checkpoint(), "checkpoint the load")
	t3 := now()
	c.must(db.StartEngine(), "start engine")
	t4 := now()
	// The default per-session limit (1 000 req/s) would shed a closed loop;
	// request tracing is sampled out: the ledger measures from outside.
	srv, err := server.New(db, server.Config{Addr: "127.0.0.1:0", SessionRate: 1e9, SessionBurst: 1e9,
		TraceSample: 1 << 30}, nil, nil)
	c.must(err, "server")
	c.must(srv.Start(), "server start")
	for i, h := range hcs {
		h.url = "http://" + srv.Addr()
		h.postCommit(picks[2*i], picks[2*i+1], false)
	}
	t5 := now()
	c.setups = append(c.setups, setupTimes{generate: float64(t1-t0) / 1e9, load: float64(t3-t2) / 1e9,
		engine: float64(t4-t3) / 1e9, server: float64(t5-t4) / 1e9})
	heapSetup := c.heapIfTraced()

	src := c.sources(ds)
	// The service has no read route; the read-only transaction runs
	// embedded on the served database, beside the requests.
	stopReader := startReader(func() *h2tap.Tx { return db.Begin() }, ds.quietPersons(c.seed), readGroup)
	fs0, k0 := fs.snapshot(), readCounters(db)
	w := window{start: now()}
	var wg sync.WaitGroup
	for i, h := range hcs {
		wg.Add(1)
		go func(i int, h *httpClient) {
			defer wg.Done()
			mine := picks[2*clients+2*i*perClient:]
			for j := 0; j < perClient; j++ {
				if j%analyticsEvery == analyticsEvery-1 {
					c.httpAnalytics(h, src[(j/analyticsEvery)%len(src)])
					continue
				}
				h.postCommit(mine[2*j], mine[2*j+1], true)
			}
		}(i, h)
	}
	wg.Wait()
	w.end = now()
	reader := stopReader()
	c.closeDurableWindow(w, db, fs, fs0, k0)
	c.noteHeap(heap0, heapSetup)
	var ledger []httpAck
	c.mergeClient(reader)
	for _, h := range hcs {
		c.mergeClient(h.client)
		c.shed += h.shed
		c.waitMs = append(c.waitMs, h.waitMs...)
		ledger = append(ledger, h.ledger...)
		h.hc.CloseIdleConnections()
	}
	c.endSet()
	c.scrub(db)
	if c.trace {
		c.probeReplica(db, ds)
	}

	// Drain without the server's shutdown checkpoint, close, reopen: the
	// whole tail of the log is replayed.
	c.must(srv.Close(), "server close")
	c.must(db.Close(), "close")
	db = nil
	runtime.GC() // a restarted process does not collect its predecessor's heap
	t6 := now()
	db, err = h2tap.Open(opts)
	c.must(err, "reopen")
	c.must(db.StartEngine(), "restart engine")
	rec := float64(now()-t6) / 1e9
	c.recover = append(c.recover, rec)
	c.verifyHTTPLedger(db, ledger)
	if c.trace {
		c.replayS, c.replayN = rec, int64(len(ledger))
		t7 := now()
		c.must(db.Checkpoint(), "checkpoint")
		c.checkpointS = float64(now()-t7) / 1e9
	}
	c.must(db.Close(), "close")
}

// verifyHTTPLedger checks that every acknowledged commit survived the
// reopen: both nodes exist and both relationships are in place.
func (c *runCtx) verifyHTTPLedger(db *h2tap.DB, ledger []httpAck) {
	tx := db.Begin()
	defer tx.Abort() //nolint:errcheck // read-only
	out := map[uint64]map[uint64]bool{}
	has := func(src, dst uint64) bool {
		if out[src] == nil {
			out[src] = map[uint64]bool{}
			tx.Neighbors(src, func(d uint64, _ float64) bool { out[src][d] = true; return true }) //nolint:errcheck // a missing source shows as a missing edge
		}
		return out[src][dst]
	}
	for _, a := range ledger {
		c.attempted++
		if !tx.NodeExists(a.a) || !tx.NodeExists(a.b) || !has(a.p, a.pa) || !has(a.q, a.qb) {
			c.violate("acked commit (nodes %d,%d) missing after reopen", a.a, a.b)
		}
	}
}
