package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json at the repository root is the benchmark's contract with the
// gate, and the one place that holds the workloads' reasons and every
// metric's name, unit, direction and bound. The program loads it at start-up
// (run.sh starts it in the checkout root) and owns only what the gate has no
// use for: how large a run of each workload is.

// specFile is where the program finds the contract.
const specFile = "BENCHMARK.json"

// metricDef declares one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the parent's median the metric may worsen by; end-to-end only
}

// Workload names.
const (
	wlIndexBuild     = "index-build"
	wlServeSelective = "serve-selective"
	wlServeScan      = "serve-scan"
	wlServeMixedRW   = "serve-mixed-rw"
)

// sizing sizes a run of a workload: the op count is OpsPerSecond x --seconds
// (rounded to whole rounds), measured once on the 2-core reference box with
// one client, so that a run's ops take about --seconds there (the yardstick's
// laps add a tenth) while the count — and with it every deterministic metric
// — depends on the flag only, never on machine speed.
type sizing struct {
	OpsPerSecond float64
	// MinOps keeps every latency sample large enough for a p95 however short
	// the run: 200 queries, and on the mixed workload 200 writes.
	MinOps int
}

// The mixed workload's quota is set so that the gate's run (run_seconds 15:
// 1560 requests, 390 writes) stays inside one lap of its writes over the 400
// documents, where every DELETE finds its document (loadgen.go, removeEvery).
var sizings = map[string]sizing{
	wlIndexBuild:     {270, 0},
	wlServeSelective: {160, 200},
	wlServeScan:      {13, 200},
	wlServeMixedRW:   {104, 800},
}

// The loaded contract. endToEnd lists the gated metrics; every workload
// reports every one (README.md says what each means on each workload, and how
// the bounds were chosen). perLayer lists the metrics of the traced run, one
// layer each; a layer that does no work on a workload reports 0 there.
var (
	workloads  []string // in the file's order
	endToEnd   []metricDef
	perLayer   []metricDef
	runSeconds int // how long the gate's runs measure: the default of --seconds
)

// loadSpec reads the contract and checks that it names exactly the workloads
// the program can run.
func loadSpec(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	workloads = nil
	seen := make(map[string]bool)
	for _, w := range f.Workloads {
		if _, ok := sizings[w.Name]; !ok || seen[w.Name] {
			return fmt.Errorf("%s: workload %q is listed twice or is not one the program runs", path, w.Name)
		}
		seen[w.Name] = true
		workloads = append(workloads, w.Name)
	}
	if len(workloads) != len(sizings) || f.RunSeconds < 1 || len(f.EndToEnd) == 0 || len(f.PerLayer) == 0 {
		return fmt.Errorf("%s: want %d workloads, run_seconds and both metric lists", path, len(sizings))
	}
	endToEnd, perLayer, runSeconds = f.EndToEnd, f.PerLayer, f.RunSeconds
	return nil
}
