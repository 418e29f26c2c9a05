package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the harness must name the same workloads and metrics,
// with the same units, directions and bounds: a name in one and not the other
// is a metric the driver waits for and never gets, or one nobody reads.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}

	ws := workloads(1)
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.name, len(w.why))
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bf.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	hasSetup := false
	for i, d := range endToEnd {
		if bf.EndToEnd[i] != d {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, bf.EndToEnd[i], d)
		}
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("end-to-end metric %q: bad or repeated name, or bad unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %q: bound %g, better %q", d.Name, d.Bound, d.Better)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("per-layer metric %q: bad or repeated name, or bad unit %q", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
}

// The paced rates must stay the frozen ~30 % of the closed rates rather than
// drift, and no workload may ask for more connections than the reference box
// has CPUs.
func TestFrozenRates(t *testing.T) {
	for _, w := range workloads(1) {
		for i := range w.tenants {
			closed, paced := w.rates(i)
			if share := paced / closed; !(share >= 0.25 && share <= 0.35) {
				t.Errorf("%s: paced rate %g is %.0f %% of the closed rate %g, want about 30 %%", w.name, paced, 100*share, closed)
			}
		}
		if w.conns > 2 {
			t.Errorf("%s: %d connections; the reference box has 2 CPUs", w.name, w.conns)
		}
	}
}
