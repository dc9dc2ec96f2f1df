package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json and the harness must name the same workloads and metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.Name)
		got := spec.Workloads[i]
		if got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness has %q / %q", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range want {
			check(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
			}
			if got[i] != m {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness has %+v", kind, i, got[i], m)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}

	// -list prints exactly these names.
	var sb strings.Builder
	printList(&sb)
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		listed = append(listed, strings.Fields(line)[1])
	}
	if len(listed) != len(seen) {
		t.Errorf("-list prints %d names, BENCHMARK.json has %d", len(listed), len(seen))
	}
	for _, n := range listed {
		if !seen[n] {
			t.Errorf("-list prints %q, which BENCHMARK.json does not have", n)
		}
	}
}
