// Command benchgate turns the deterministic part of the gateable benchmark
// into a CI gate: it proves on every change that the paper's quantities, the
// modeled response time, the index size and the bill, did not move.
//
//	bash benchmark/run.sh --seed 42 --seconds 5 --trace 0
//	go run ./cmd/benchgate
//
// (`make benchgate` runs both.) It reads the result files the run left in
// benchmark/out and fails unless every workload of the reference was run with
// the reference's seed and length, reports ok_ops_share 1, and has the
// reference's value (to 1e-9 of it, which is float formatting) for every
// metric the reference lists under that workload. The reference file is the
// list of what is gated: modeled_ms_per_op and index_bytes_per_corpus_byte on
// every workload, which depend on --seed and --seconds only, never on the
// machine, and billed_requests_per_op and usd_per_1k_ops on index-build and
// serve-selective, where every run of one commit bills the same requests (8
// and 16 runs at these settings, none differed). On the other two the bill
// depends on the clock through the queues' 100 ms long polls, so the
// reference does not list it there: a serve-scan request that a loaded
// machine stretches past a poll bills one more empty receive (2 runs of 18
// read 127.255 or 127.26 for 127.25), and on serve-mixed-rw the two move by a
// few parts in ten thousand in every run. Every other end-to-end metric is
// printed and not gated: the clocked ones are the machine's.
//
// A change that moves a gated metric on purpose runs the benchmark as above
// and then `go run ./cmd/benchgate -update`, which rewrites the reference's
// values from the results, and says so in its description. -update keeps the
// reference's workloads and metric names; to gate another metric, add its
// name under the workload (any value) and run -update.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// reference is the checked-in file: the run's parameters and, per workload,
// the metrics that are gated there with the values they must have.
type reference struct {
	Seed      int64                         `json:"seed"`
	Seconds   int                           `json:"seconds"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// result is what the gate reads of benchmark/out/result-<workload>.json.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	refPath := flag.String("ref", "cmd/benchgate/reference.json", "the reference file")
	outDir := flag.String("out", "benchmark/out", "where the benchmark left its result files")
	update := flag.Bool("update", false, "rewrite the reference from the results instead of comparing")
	flag.Parse()
	if err := run(*refPath, *outDir, *update); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(refPath, outDir string, update bool) error {
	results, err := readResults(outDir)
	if err != nil {
		return err
	}
	var ref reference
	data, err := os.ReadFile(refPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("%s: %w", refPath, err)
	}
	if update {
		return writeReference(refPath, ref, results)
	}
	failed := 0
	fail := func(format string, args ...any) {
		failed++
		fmt.Printf("  FAIL: "+format+"\n", args...)
	}
	for _, wl := range sortedKeys(ref.Workloads) {
		res, ok := results[wl]
		if !ok {
			failed++
			fmt.Printf("%s\n  FAIL: no result file in %s\n", wl, outDir)
			continue
		}
		fmt.Printf("%s (seed %d, %d s)\n", wl, res.Seed, res.Seconds)
		for _, name := range sortedKeys(res.Metrics) {
			fmt.Printf("  %-30s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
		if res.Seed != ref.Seed || res.Seconds != ref.Seconds {
			fail("run with --seed %d --seconds %d, the reference is for --seed %d --seconds %d", res.Seed, res.Seconds, ref.Seed, ref.Seconds)
		}
		if ok, have := res.Metrics["ok_ops_share"]; !have || ok.Value != 1 {
			fail("ok_ops_share is %v, want 1", ok.Value)
		}
		for _, name := range sortedKeys(ref.Workloads[wl]) {
			got, have := res.Metrics[name]
			if want := ref.Workloads[wl][name]; !have || math.Abs(got.Value-want) > 1e-9*math.Abs(want) {
				fail("%s is %.12g, the reference has %.12g", name, got.Value, want)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d checks failed against %s", failed, refPath)
	}
	fmt.Printf("benchgate: %d workloads match %s\n", len(ref.Workloads), refPath)
	return nil
}

func readResults(outDir string) (map[string]result, error) {
	files, err := filepath.Glob(filepath.Join(outDir, "result-*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s; run `bash benchmark/run.sh --seed 42 --seconds 5 --trace 0` first", outDir)
	}
	results := make(map[string]result, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		results[res.Workload] = res
	}
	return results, nil
}

// writeReference rewrites the values of the reference's metrics from the
// results, keeping its workloads and the metric names under each.
func writeReference(refPath string, ref reference, results map[string]result) error {
	for i, wl := range sortedKeys(ref.Workloads) {
		res, ok := results[wl]
		if !ok {
			return fmt.Errorf("%s was not run", wl)
		}
		if i == 0 {
			ref.Seed, ref.Seconds = res.Seed, res.Seconds
		} else if res.Seed != ref.Seed || res.Seconds != ref.Seconds {
			return fmt.Errorf("%s was run with --seed %d --seconds %d, another workload with --seed %d --seconds %d", wl, res.Seed, res.Seconds, ref.Seed, ref.Seconds)
		}
		for name := range ref.Workloads[wl] {
			m, ok := res.Metrics[name]
			if !ok {
				return fmt.Errorf("%s did not measure %s", wl, name)
			}
			ref.Workloads[wl][name] = m.Value
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(refPath, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
