package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// cover is the union of the device-call intervals of a traced window, as
// disjoint sorted intervals with prefix sums, so "how much of [a, b) did
// some device call cover" is two binary searches. That is the part of a
// commit span its F children account for; the rest is the span's self time.
type cover struct {
	start, end []int64
	before     []int64 // before[i]: covered ns in intervals 0..i-1
}

func newCover(spans []fsSpan) *cover {
	s := append([]fsSpan(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	c := &cover{}
	for _, sp := range s {
		if n := len(c.end); n > 0 && sp.start <= c.end[n-1] {
			if sp.end > c.end[n-1] {
				c.end[n-1] = sp.end
			}
			continue
		}
		c.start = append(c.start, sp.start)
		c.end = append(c.end, sp.end)
	}
	c.before = make([]int64, len(c.start)+1)
	for i := range c.start {
		c.before[i+1] = c.before[i] + c.end[i] - c.start[i]
	}
	return c
}

// upTo is the covered time in (-inf, t).
func (c *cover) upTo(t int64) int64 {
	i := sort.Search(len(c.start), func(i int) bool { return c.end[i] > t })
	total := c.before[i]
	if i < len(c.start) && c.start[i] < t {
		total += t - c.start[i]
	}
	return total
}

// within is the covered time inside [a, b).
func (c *cover) within(a, b int64) int64 { return c.upTo(b) - c.upTo(a) }

// traceSpanCap bounds the transactions written to the Chrome trace file; the
// ledger's medians use every traced transaction.
const traceSpanCap = 4_000

// writeChromeTrace writes the traced set as Chrome trace-event JSON (load it
// in Perfetto or chrome://tracing): per client thread one span per
// transaction with its three public calls as children, the device calls on
// their own thread, analytics calls and propagation cycles on theirs. Span
// names are the per-layer metric prefixes.
func (c *runCtx) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	first := true
	emit := func(name string, tid int, start, end int64, args string) {
		if !first {
			w.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{%s}}`,
			name, tid, float64(start)/1e3, float64(end-start)/1e3, args)
	}
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	var last int64
	for i, t := range c.txs {
		if i >= traceSpanCap {
			break
		}
		req := fmt.Sprintf(`"req":%d`, i)
		tid := int(t.client)
		emit("client.commit", tid, t.t0, t.t3, req)
		if t.t1 > t.t0 || t.t2 > t.t1 {
			emit("graph.begin", tid, t.t0, t.t1, req+`,"parent":"client.commit"`)
			emit("graph.apply", tid, t.t1, t.t2, req+fmt.Sprintf(`,"parent":"client.commit","ops":%d`, t.ops))
			emit("graph.commit", tid, t.t2, t.t3, req+`,"parent":"client.commit"`)
		}
		if t.t3 > last {
			last = t.t3
		}
	}
	for _, s := range c.fsSpans {
		if s.start > last {
			continue
		}
		name := "vfs.write"
		if s.sync {
			name = "vfs.sync"
		}
		emit(name, 10, s.start, s.end, fmt.Sprintf(`"bytes":%d,"parent":"graph.commit"`, s.bytes))
	}
	for _, r := range c.calls {
		if r.start <= last {
			emit("htap.analytics", 11, r.start, r.end, fmt.Sprintf(`"watermark":%d`, r.watermark))
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
