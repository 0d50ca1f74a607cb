// Command benchgate turns the deterministic part of the gateable benchmark
// into a CI gate: it proves on every change that the paper's quantities, the
// modeled response time and the index size, did not move.
//
//	bash benchmark/run.sh --seed 42 --seconds 5 --trace 0
//	go run ./cmd/benchgate
//
// (`make benchgate` runs both.) It reads the result files the run left in
// benchmark/out and fails unless every workload of the reference was run with
// the reference's seed and length, reports ok_ops_share 1, and has the
// reference's modeled_ms_per_op and index_bytes_per_corpus_byte. Those two
// depend on --seed and --seconds only, never on the machine. The other
// end-to-end metrics are printed and not gated: the clocked ones are the
// machine's, and billed_requests_per_op, and usd_per_1k_ops with it, move by
// a few parts in ten thousand between runs of one commit with the timing of
// the queues' long polls.
//
// A change that moves the modeled time or the index size on purpose runs the
// benchmark as above and then `go run ./cmd/benchgate -update`, which
// rewrites the reference from the results, and says so in its description.
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

// gated are the metrics that must equal the reference.
var gated = []string{"modeled_ms_per_op", "index_bytes_per_corpus_byte"}

// reference is the checked-in file: the run's parameters and the gated
// metrics of every workload.
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
	if update {
		return writeReference(refPath, results)
	}
	var ref reference
	data, err := os.ReadFile(refPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("%s: %w", refPath, err)
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
		for _, name := range gated {
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

func writeReference(refPath string, results map[string]result) error {
	ref := reference{Workloads: make(map[string]map[string]float64, len(results))}
	for wl, res := range results {
		ref.Seed, ref.Seconds = res.Seed, res.Seconds
		ref.Workloads[wl] = make(map[string]float64, len(gated))
		for _, name := range gated {
			m, ok := res.Metrics[name]
			if !ok {
				return fmt.Errorf("%s did not measure %s", wl, name)
			}
			ref.Workloads[wl][name] = m.Value
		}
	}
	for wl, res := range results {
		if res.Seed != ref.Seed || res.Seconds != ref.Seconds {
			return fmt.Errorf("%s was run with --seed %d --seconds %d, another workload with --seed %d --seconds %d", wl, res.Seed, res.Seconds, ref.Seed, ref.Seconds)
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
