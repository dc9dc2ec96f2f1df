package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"h2tap"
)

// TestOverloadWithNetworkFaults is the acceptance-criteria test: the
// server is driven well past its configured capacity (MaxInFlight=2 with
// 32 open-throttle clients — ≥2× sustainable by construction) while
// network-fault clients run alongside (slow-loris, mid-request
// disconnects, oversized and malformed bodies, clock-skewed deadlines).
// Asserts:
//
//   - accepted-request p99 stays within a configured bound
//   - the excess is shed with structured errors + Retry-After, never
//     connection resets or panics
//   - the server still serves cleanly after the storm
//   - graceful drain completes within its deadline
//   - zero goroutines leak once the server and database are gone
func TestOverloadWithNetworkFaults(t *testing.T) {
	baseline := runtime.NumGoroutine()

	db, err := h2tap.Open(h2tap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Addr:              "127.0.0.1:0",
		MaxInFlight:       2,
		MaxConns:          256,
		SessionRate:       100000, // per-session buckets out of the way:
		SessionBurst:      200000, // this test is about the global semaphore
		ReadHeaderTimeout: 300 * time.Millisecond,
		DefaultDeadline:   2 * time.Second,
	}
	srv, err := New(db, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Model an engine where a commit costs ~2ms inside the admission slot:
	// 32 clients vs MaxInFlight=2 × 2ms ≈ 1k/s sustainable — the clients
	// offer well over 2× that, so the semaphore must shed.
	srv.testHookPreCommit = func() { time.Sleep(2 * time.Millisecond) }
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	host := srv.Addr()

	const (
		clients  = 32
		runFor   = 1500 * time.Millisecond
		p99Bound = time.Second
	)
	var (
		accepted, badBody atomic.Int64
		shedMu            sync.Mutex
		sheds             = map[string]int64{}
		retryAfterSeen    atomic.Int64
		latMu             sync.Mutex
		lats              []float64
	)
	deadline := time.Now().Add(runFor)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 2}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr, Timeout: 5 * time.Second}
			for i := 0; time.Now().Before(deadline); i++ {
				start := time.Now()
				body := fmt.Sprintf(`{"ops":[{"op":"add-node","label":"P","props":{"c":%d,"i":%d}}]}`, c, i)
				resp, err := hc.Post(base+"/v1/commit", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("transport error under overload: %v", err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					accepted.Add(1)
					latMu.Lock()
					lats = append(lats, float64(time.Since(start))/float64(time.Millisecond))
					latMu.Unlock()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					var env errorEnvelope
					if json.Unmarshal(raw, &env) != nil || env.Error.Code == "" {
						badBody.Add(1)
						continue
					}
					if resp.Header.Get("Retry-After") != "" {
						retryAfterSeen.Add(1)
					}
					shedMu.Lock()
					sheds[env.Error.Code]++
					shedMu.Unlock()
				default:
					t.Errorf("unexpected status %d: %s", resp.StatusCode, raw)
					return
				}
			}
		}(c)
	}

	// Network-fault clients, concurrent with the overload.
	faultCtx, stopFaults := context.WithDeadline(context.Background(), deadline)
	defer stopFaults()
	var fwg sync.WaitGroup
	runFault := func(fn func()) {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			for faultCtx.Err() == nil {
				fn()
				time.Sleep(20 * time.Millisecond)
			}
		}()
	}
	runFault(func() { // slow-loris
		c, err := net.DialTimeout("tcp", host, time.Second)
		if err != nil {
			return
		}
		defer c.Close()
		io.WriteString(c, "POST /v1/commit HTTP/1.1\r\n") //nolint:errcheck
		for i := 0; i < 10; i++ {
			if _, err := c.Write([]byte("X")); err != nil {
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
	})
	runFault(func() { // mid-request disconnect
		c, err := net.DialTimeout("tcp", host, time.Second)
		if err != nil {
			return
		}
		io.WriteString(c, "POST /v1/commit HTTP/1.1\r\nHost: h\r\nContent-Length: 64\r\n\r\n{\"ops\"") //nolint:errcheck
		c.Close()
	})
	hcF := &http.Client{Timeout: 2 * time.Second}
	runFault(func() { // malformed body: 400, or a shed if no slot was free
		resp, err := hcF.Post(base+"/v1/commit", "application/json", strings.NewReader(`{"ops":[{]`))
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("malformed body = %d", resp.StatusCode)
			}
		}
	})
	runFault(func() { // oversized body
		resp, err := hcF.Post(base+"/v1/commit", "application/json",
			strings.NewReader(`{"ops":[`+strings.Repeat(`{"op":"add-node"},`, 1<<16)+`]}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("oversized body = %d", resp.StatusCode)
			}
		}
	})
	runFault(func() { // clock-skewed absolute deadline
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/commit", strings.NewReader(`{"ops":[{"op":"add-node"}]}`))
		req.Header.Set("X-Deadline-Unix-Ms", "1000")
		resp, err := hcF.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Errorf("skewed deadline = %d", resp.StatusCode)
			}
		}
	})

	wg.Wait()
	fwg.Wait()
	if t.Failed() {
		return
	}

	if accepted.Load() == 0 {
		t.Fatal("overload starved every request; admission must keep serving at capacity")
	}
	if badBody.Load() > 0 {
		t.Fatalf("%d sheds lacked the structured error envelope", badBody.Load())
	}
	shedMu.Lock()
	total := int64(0)
	for _, n := range sheds {
		total += n
	}
	shedMu.Unlock()
	if total == 0 {
		t.Fatalf("no request was shed at %d clients over MaxInFlight=2", clients)
	}
	if retryAfterSeen.Load() == 0 {
		t.Fatal("no shed carried a Retry-After header")
	}
	latMu.Lock()
	sort.Float64s(lats)
	p99 := lats[int(0.99*float64(len(lats)-1))]
	p50 := lats[len(lats)/2]
	latMu.Unlock()
	if p99 > float64(p99Bound)/float64(time.Millisecond) {
		t.Fatalf("accepted-request p99 = %.1fms, bound %v", p99, p99Bound)
	}
	t.Logf("accepted=%d sheds=%v p50=%.2fms p99=%.2fms", accepted.Load(), sheds, p50, p99)

	// Still healthy and serving after the storm.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz after storm: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after storm = %d", resp.StatusCode)
	}

	// Graceful drain completes within its deadline.
	drainStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(drainStart); d > 5*time.Second {
		t.Fatalf("drain took %v", d)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitForGoroutines(t, baseline, 3)
}

// TestDrainShedsNewWork proves the drain gate: once draining, new API
// requests get structured 503 draining while the drain completes.
func TestDrainShedsNewWork(t *testing.T) {
	db, err := h2tap.Open(h2tap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := New(db, Config{Addr: "127.0.0.1:0"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	hc := &http.Client{Timeout: 2 * time.Second}

	// Open an interactive tx; drain must abort it.
	var begin beginResponse
	postJSON(t, hc, base+"/v1/tx/begin", `{}`, &begin)

	srv.draining.Store(true) // gate first, as Drain does
	code, raw := postJSON(t, hc, base+"/v1/commit", `{"ops":[{"op":"add-node"}]}`, nil)
	if code != http.StatusServiceUnavailable || decodeAPIError(t, raw).Code != codeDraining {
		t.Fatalf("during drain = %d: %s", code, raw)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := srv.sessions.size(); n != 0 {
		t.Fatalf("%d sessions survived drain", n)
	}
	// Post-drain, tx/begin on a fresh connection fails at the TCP or gate
	// level — either is acceptable; what matters is no new work lands.
	if resp, err := hc.Post(base+"/v1/tx/begin", "application/json", strings.NewReader(`{}`)); err == nil {
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("tx began after drain")
		}
	}
}

// TestDrainDurability is the restart half of the acceptance criteria:
// every commit the server acknowledged before SIGTERM-style drain is
// durable across a process restart (same persist dir).
func TestDrainDurability(t *testing.T) {
	dir := t.TempDir()
	// No per-commit fsync: graceful drain's durability comes from the
	// drain-time checkpoint + clean close, which is exactly the contract
	// under test (crash durability is internal/crashtest's domain). Small
	// pools keep the reopen (which reads whole pool files) fast.
	db, err := h2tap.Open(h2tap.Options{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, Config{Addr: "127.0.0.1:0"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	// Concurrent committers; every 200 OK is a durability promise.
	var acked atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Timeout: 5 * time.Second}
			for i := 0; i < 25; i++ {
				body := fmt.Sprintf(`{"ops":[{"op":"add-node","label":"P","props":{"c":%d,"i":%d}}]}`, c, i)
				resp, err := hc.Post(base+"/v1/commit", "application/json", strings.NewReader(body))
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					acked.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if acked.Load() == 0 {
		t.Fatal("no commit acknowledged")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Restart: recovery must surface every acknowledged commit.
	db2, err := h2tap.Open(h2tap.Options{PersistDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got := db2.Stats().LiveNodes; got != acked.Load() {
		t.Fatalf("recovered %d nodes, acknowledged %d", got, acked.Load())
	}
}
