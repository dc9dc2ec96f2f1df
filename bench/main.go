// Command bench is the H2TAP performance ledger: six named workloads, eleven
// end-to-end metrics and a per-layer ledger for the commit and propagation
// paths, all measured from outside the engine through its public functions.
//
//	go run ./bench                       every workload, plain then traced pass
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                     one pass of one workload (the BENCHMARK.json contract)
//	go run ./bench -list                 workload and metric names
//	go run ./bench -agree A.json B.json  compare two result files against the bounds
//
// See README.md in this directory for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// passResult is one pass of one workload as written to result files.
type passResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Committed int64             `json:"committed"` // update transactions that committed
	Skipped   int64             `json:"skipped"`   // ops whose precondition did not hold: attempted, not failed
	Notes     []string          `json:"notes,omitempty"`
	ScanRaces int               `json:"scan_races,omitempty"` // analytics calls repeated after the engine's reserve-vs-scan panic
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is what -out writes and -agree reads.
type resultFile struct {
	Env    environment  `json:"env"`
	Passes []passResult `json:"passes"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		wl      = flag.String("workload", "", "run one workload (default: all, plain then traced)")
		seed    = flag.Int64("seed", 1, "drives dataset, op scripts and analytics sources")
		seconds = flag.Float64("seconds", defaultSeconds, "nominal measured seconds per pass; op counts scale with it")
		trace   = flag.Int("trace", 0, "1: traced pass (one set of the plain pass) plus layer probes, reporting the per-layer metrics")
		list    = flag.Bool("list", false, "print workload and metric names and exit")
		agree   = flag.Bool("agree", false, "compare two result files (args: A.json B.json) against BENCHMARK.json bounds")
		out     = flag.String("out", "", "also write the results to this JSON file")
	)
	flag.Parse()

	switch {
	case *list:
		printList(os.Stdout)
		return 0
	case *agree:
		if flag.NArg() != 2 {
			return usage("usage: bench -agree A.json B.json")
		}
		if !agreeFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json") {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		return usage("-seconds must be positive")
	}

	type pass struct {
		wl    *workloadSpec
		trace bool
	}
	var passes []pass
	if *wl == "" {
		for i := range workloads {
			passes = append(passes, pass{&workloads[i], false}, pass{&workloads[i], true})
		}
	} else {
		w := findWorkload(*wl)
		if w == nil {
			return usage("unknown workload %q (see -list)", *wl)
		}
		passes = []pass{{w, *trace != 0}}
	}

	// Durable databases live under one directory inside the checkout,
	// removed on the way out; the Chrome trace files stay beside it.
	workDir, err := filepath.Abs(filepath.Join(".bench_work", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(workDir, 0o755)
	}
	if err != nil {
		return usage("work dir: %v", err)
	}
	defer os.RemoveAll(workDir)

	file := resultFile{Env: fingerprint(workDir)}
	file.Env.print(os.Stdout)
	for _, p := range passes {
		res := runPass(p.wl, *seed, *seconds, p.trace, workDir, file.Env)
		res.print(os.Stdout)
		file.Passes = append(file.Passes, res)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, buf, 0o644)
		}
		if err != nil {
			return usage("write %s: %v", *out, err)
		}
	}
	if *wl != "" {
		fmt.Println(contractLine(file.Passes[0]))
	}
	return exitCode(file.Passes)
}

// exitCode is non-zero when any pass produced a wrong output.
func exitCode(passes []passResult) int {
	for _, p := range passes {
		if !p.Correct {
			return 1
		}
	}
	return 0
}

// contractLine is the last line of a single-workload run: one JSON object
// with exactly the keys correct, attempted, failed and metrics.
func contractLine(p passResult) string {
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{p.Correct, p.Attempted, p.Failed, map[string]contractMetric{}}
	for name, m := range p.Metrics {
		line.Metrics[name] = contractMetric{m.Value, m.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain structs of numbers and strings
	}
	return string(buf)
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// defaultSeconds equals run_seconds in BENCHMARK.json.
const defaultSeconds = 16

// runPass runs one pass of w: a plain pass of w.sets sets, each on a fresh
// database, reporting the end-to-end metrics, or a traced pass reporting the
// per-layer metrics.
func runPass(w *workloadSpec, seed int64, seconds float64, traced bool, workDir string, env environment) passResult {
	if traced {
		res, _ := tracedPass(w, seed, seconds, 1, workDir, env)
		return res
	}
	c := &runCtx{wl: w.Name, layers: w.layers, seed: seed, seconds: seconds, scale: 1, sets: w.sets, workDir: workDir}
	w.run(c)
	res := c.result(false, seed, seconds)
	res.Metrics = c.endToEndMetrics()
	return res
}

// tracedPass runs one traced set, the size of one set of the plain pass,
// then the isolated layer probes. It also returns the set's context.
func tracedPass(w *workloadSpec, seed int64, seconds, scale float64, workDir string, env environment) (passResult, *runCtx) {
	c := &runCtx{wl: w.Name, layers: w.layers, seed: seed, seconds: seconds, scale: scale, sets: w.sets, workDir: workDir,
		trace: true, probed: probes{}}
	w.run(c)
	c.runProbes()
	tracePath := filepath.Join(filepath.Dir(workDir), "trace-"+w.Name+".json")
	if err := c.writeChromeTrace(tracePath); err != nil {
		c.violate("write %s: %v", tracePath, err)
	}
	res := c.result(true, seed, seconds)
	res.Metrics = c.perLayerMetrics(env)
	return res, c
}

// result is the pass's ledger without its metrics.
func (c *runCtx) result(traced bool, seed int64, seconds float64) passResult {
	return passResult{Workload: c.wl, Seed: seed, Seconds: seconds, Trace: traced,
		Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Committed: c.committed, Skipped: c.skipped,
		Notes: c.notes, ScanRaces: c.scanRaces}
}

func (r *passResult) print(w io.Writer) {
	kind := "plain pass: end-to-end metrics"
	if r.Trace {
		kind = "traced pass: per-layer metrics"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d seconds=%g  %s ==\n", r.Workload, r.Seed, r.Seconds, kind)
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	fmt.Fprintf(w, "%-34s %14s %-6s %9s %8s\n", "metric", "value", "unit", "samples", "spread")
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok {
			continue
		}
		note := ""
		if m.Pct != 0 && !m.Supported {
			note = fmt.Sprintf("  (p%.0f stands in: fewer than %d samples lie beyond the percentile named)", m.Pct, minBeyond)
		}
		fmt.Fprintf(w, "%-34s %14.4f %-6s %9d %7.1f%%%s\n", s.Name, m.Value, m.Unit, m.N, m.Spread*100, note)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d (update transactions committed %d, with nothing to do %d)\n",
		r.Attempted, r.Failed, r.Committed, r.Skipped)
	if r.ScanRaces > 0 {
		fmt.Fprintf(w, "  note: %d analytics calls were repeated after the engine's reserve-vs-scan panic (ROADMAP item 1)\n", r.ScanRaces)
	}
	sort.Strings(r.Notes)
	for i, n := range r.Notes {
		if i == 10 {
			fmt.Fprintf(w, "  … %d more\n", len(r.Notes)-10)
			break
		}
		fmt.Fprintf(w, "  VIOLATION: %s\n", n)
	}
}

func printList(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %s\n", wl.Name)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "end_to_end %s %s\n", m.Name, m.Unit)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "per_layer %s %s\n", m.Name, m.Unit)
	}
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	return 2
}
