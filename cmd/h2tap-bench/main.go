// Command h2tap-bench regenerates the paper's evaluation tables and
// figures (§6). Each experiment prints the series of the corresponding
// plot; EXPERIMENTS.md records the expected shapes.
//
// Usage:
//
//	h2tap-bench -list
//	h2tap-bench -exp fig3
//	h2tap-bench -exp all
//	h2tap-bench -exp table1 -rmatscale 18
//	h2tap-bench -exp all -full        # approach paper sizes (slow, big)
//	h2tap-bench -faults 200           # GPU-fault soak: 200 randomized runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"h2tap/internal/crashtest"
	"h2tap/internal/experiments"
	"h2tap/internal/faultinject"
	"h2tap/internal/htap"
	"h2tap/internal/obs"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (fig3..fig12, table1, sec66, costmodel) or 'all'")
		list       = flag.Bool("list", false, "list experiments and exit")
		full       = flag.Bool("full", false, "approach paper-scale sizes (slow, memory-hungry)")
		downscale  = flag.Int("downscale", 0, "override dataset downscale factor")
		queryScale = flag.Int("queryscale", 0, "override query-count scale factor")
		rmatScale  = flag.Int("rmatscale", 0, "override RMAT scale for table1")
		workers    = flag.Int("workers", 0, "propagation worker count (0 = GOMAXPROCS); adds a series point to parmerge")
		seed       = flag.Int64("seed", 1, "random seed")
		skipHeavy  = flag.Bool("skip-heavy", false, "skip long-running experiments (fig9, table1)")
		jsonOut    = flag.Bool("json", false, "emit one JSON object per experiment instead of tables, plus one line per propagation cycle")
		faults     = flag.Int("faults", 0, "GPU-fault soak mode: run this many randomized fault injections and exit")
		shards     = flag.Int("shards", 0, "shard count for the shards experiment (0 = sweep 1,2,4,8; N>1 compares single-domain vs N)")
		obsAddr    = flag.String("obs", "", "serve /metrics, /healthz, /debug/trace and /debug/pprof on this address (e.g. 127.0.0.1:0) while experiments run")
		obsLinger  = flag.Duration("obs-linger", 0, "keep the -obs listener up this long after the experiments finish")
		cycleLog   = flag.String("cyclelog", "", "append one JSON line per propagation cycle to this file ('-' for stdout)")
	)
	flag.Parse()

	if *faults > 0 {
		os.Exit(faultSoak(*faults, *seed))
	}

	if *list {
		for _, e := range experiments.All() {
			heavy := ""
			if e.Heavy {
				heavy = " (heavy)"
			}
			fmt.Printf("%-10s %s%s\n", e.ID, e.Desc, heavy)
		}
		return
	}

	cfg := experiments.Default()
	if *full {
		cfg = experiments.Full()
	}
	if *downscale > 0 {
		cfg.Downscale = *downscale
	}
	if *queryScale > 0 {
		cfg.QueryScale = *queryScale
	}
	if *rmatScale > 0 {
		cfg.RMATScale = *rmatScale
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	cfg.Seed = *seed
	if *shards > 0 {
		cfg.Shards = *shards
	}

	if *obsAddr != "" {
		cfg.Obs = obs.New()
		srv, err := obs.Serve(*obsAddr, cfg.Obs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		// The smoke harness parses this line for the bound port.
		fmt.Fprintf(os.Stderr, "obs: listening on %s\n", srv.Addr())
		if *obsLinger > 0 {
			defer time.Sleep(*obsLinger)
		}
	}

	// Per-cycle JSON stream: to the -cyclelog file, or to stdout alongside
	// the -json table objects.
	var outMu sync.Mutex
	if *cycleLog != "" || *jsonOut {
		w := io.Writer(os.Stdout)
		if *cycleLog != "" && *cycleLog != "-" {
			f, err := os.Create(*cycleLog)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		cenc := json.NewEncoder(w)
		cfg.OnCycle = func(rep *htap.PropagationReport) {
			line := cycleLine{Type: "cycle", Health: rep.Health.String(), Report: rep}
			outMu.Lock()
			defer outMu.Unlock()
			if err := cenc.Encode(line); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}

	var toRun []experiments.Experiment
	if *exp == "all" {
		for _, e := range experiments.All() {
			if *skipHeavy && e.Heavy {
				fmt.Printf("-- skipping %s (heavy)\n\n", e.ID)
				continue
			}
			toRun = append(toRun, e)
		}
	} else {
		e, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		toRun = append(toRun, e)
	}

	if !*jsonOut {
		fmt.Printf("h2tap-bench: downscale=%d queryscale=%d rmatscale=%d seed=%d\n\n",
			cfg.Downscale, cfg.QueryScale, cfg.RMATScale, cfg.Seed)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, e := range toRun {
		start := time.Now()
		tab := e.Run(cfg)
		tab.Note("experiment wall time: %v", time.Since(start).Round(time.Millisecond))
		if *jsonOut {
			outMu.Lock()
			err := enc.Encode(tab.JSON())
			outMu.Unlock()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			tab.Fprint(os.Stdout)
		}
	}
}

// cycleLine is the per-propagation-cycle JSON record emitted by -json /
// -cyclelog: the full report (phase walls, predicted costs, staleness)
// plus the flattened health string.
type cycleLine struct {
	Type   string                  `json:"type"`
	Health string                  `json:"health"`
	Report *htap.PropagationReport `json:"report"`
}

// faultSoak hammers the propagation pipeline with randomized GPU faults:
// each round picks a replica kind, a device operation, an occurrence
// within that operation's fault-free count, and a fault kind, then runs
// the crashtest GPU workload and checks every propagation invariant
// (failure-atomic consumption, degraded availability, post-heal
// convergence, zero scrub divergence). Returns a non-zero exit code if any
// round violates an invariant.
func faultSoak(rounds int, seed int64) int {
	replicas := []htap.ReplicaKind{htap.StaticCSR, htap.DynamicHash}
	counts := make([]map[string]int64, len(replicas))
	for i, r := range replicas {
		c, err := crashtest.GPUGoldenRun(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fault soak: golden run (%v): %v\n", r, err)
			return 1
		}
		counts[i] = c
	}

	rng := rand.New(rand.NewSource(seed))
	kinds := []faultinject.GPUFaultKind{faultinject.Transient, faultinject.Persistent}
	failures, injected := 0, 0
	start := time.Now()
	for i := 0; i < rounds; i++ {
		ri := rng.Intn(len(replicas))
		op := faultinject.GPUOps[rng.Intn(len(faultinject.GPUOps))]
		max := counts[ri][op]
		if max == 0 {
			continue // workload never performs this op on this replica kind
		}
		res := crashtest.RunGPUFaultPoint(replicas[ri], op, 1+rng.Int63n(max), kinds[rng.Intn(len(kinds))])
		if res.Injected > 0 {
			injected++
		}
		if res.Err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL %v fault at %s#%d (%v): %v\n",
				res.Kind, res.Op, res.N, res.Replica, res.Err)
		}
	}
	fmt.Printf("fault soak: %d rounds (%d injected a fault), %d failures, %v\n",
		rounds, injected, failures, time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		return 1
	}
	return 0
}
