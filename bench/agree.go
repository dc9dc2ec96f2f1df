package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -agree needs: each end-to-end
// metric's direction and the share by which it may get worse.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

// agreeFiles compares two result files pass by pass, metric by metric. A is
// the base: each ratio is B ÷ A. An end-to-end metric disagrees when B is
// worse than A by more than its bound; per-layer metrics have no bound and
// are printed for reading. It reports whether every bounded pair agreed and
// no pass in either file had failed ops.
func agreeFiles(w io.Writer, pathA, pathB, specPath string) bool {
	var a, b resultFile
	var spec benchmarkSpec
	for _, f := range []struct {
		path string
		into any
	}{{pathA, &a}, {pathB, &b}, {specPath, &spec}} {
		buf, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(buf, f.into)
		}
		if err != nil {
			fmt.Fprintf(w, "agree: %s: %v\n", f.path, err)
			return false
		}
	}
	bounds := map[string]metricSpec{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	type key struct {
		workload string
		trace    bool
	}
	inB := map[key]passResult{}
	for _, p := range b.Passes {
		inB[key{p.Workload, p.Trace}] = p
	}

	ok := true
	for _, pa := range a.Passes {
		pb, found := inB[key{pa.Workload, pa.Trace}]
		if !found {
			fmt.Fprintf(w, "%s trace=%v: missing from %s\n", pa.Workload, pa.Trace, pathB)
			ok = false
			continue
		}
		fmt.Fprintf(w, "\n== %s trace=%v: A=%s (seed %d)  B=%s (seed %d) ==\n", pa.Workload, pa.Trace, pathA, pa.Seed, pathB, pb.Seed)
		if pa.Failed+pb.Failed > 0 {
			fmt.Fprintf(w, "FAILED OPS: A %d of %d, B %d of %d\n", pa.Failed, pa.Attempted, pb.Failed, pb.Attempted)
			ok = false
		}
		fmt.Fprintf(w, "%-34s %14s %14s %-6s %9s %8s %8s  %s\n", "metric", "A", "B", "unit", "B÷A", "spreadA", "spreadB", "verdict")
		specs := endToEnd
		if pa.Trace {
			specs = perLayer
		}
		for _, s := range specs {
			ma, okA := pa.Metrics[s.Name]
			mb, okB := pb.Metrics[s.Name]
			if !okA || !okB {
				continue
			}
			ratio, verdict := 0.0, "-"
			if ma.Value != 0 {
				ratio = mb.Value / ma.Value
			}
			if bd, bounded := bounds[s.Name]; bounded && !pa.Trace {
				worse := ratio - 1 // lower is better: B larger is worse
				if bd.Better == higher {
					worse = 1 - ratio
				}
				verdict = fmt.Sprintf("ok (bound %.2f)", bd.Bound)
				if ma.Value == 0 || worse > bd.Bound {
					verdict = fmt.Sprintf("DISAGREE: worse by %.3f, bound %.2f", worse, bd.Bound)
					ok = false
				}
			}
			fmt.Fprintf(w, "%-34s %14.4f %14.4f %-6s %9.3f %7.1f%% %7.1f%%  %s\n",
				s.Name, ma.Value, mb.Value, ma.Unit, ratio, ma.Spread*100, mb.Spread*100, verdict)
		}
	}
	if ok {
		fmt.Fprintln(w, "\nagree: every end-to-end metric of B is within its bound of A")
	} else {
		fmt.Fprintln(w, "\nagree: DISAGREEMENT (see above)")
	}
	return ok
}
