// Command benchmark is the repository's gateable benchmark: four workloads
// over the simulated cloud warehouse, twelve end-to-end metrics with
// regression bounds, and a traced replay whose per-layer times sum to the
// end-to-end figure. It owns its load generator, percentiles, answer checking
// and set-up, so that no change to the product can move a number by editing
// what measures it. See README.md.
//
//	bash benchmark/run.sh --workload serve-scan --seed 42 --seconds 15 --trace 0
//	bash benchmark/run.sh -seed 42 -trace 1       # all four workloads, all metrics
//	bash benchmark/run.sh -selfcheck              # two sets, compared within the bounds
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
)

// outDir receives the full result and the trace of every workload run,
// relative to the checkout root (run.sh starts the program there).
const outDir = "benchmark/out"

// options selects one workload run.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	scale    scale
	// setups is how many times the set-up is repeated; setup_s is the median.
	setups int
	// outDir is where the result and the trace are written; empty writes
	// nothing (the unit tests).
	outDir string
}

// defaultSetups is how often a gated run sets up.
const defaultSetups = 3

func environment() envInfo {
	env := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients,
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	// The commit is known only when the binary was built inside a git
	// checkout; the gate's checkouts are plain directories.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// runWorkload runs one workload: always the untraced timed run, and after it
// the traced replay when asked for.
func runWorkload(o options) (*result, error) {
	var (
		res *result
		err error
	)
	if o.workload == wlIndexBuild {
		var run *buildRun
		if res, run, err = runIndexBuild(o); err == nil && o.traced {
			err = traceIndexBuild(o, res, run)
		}
	} else {
		var run *serveRun
		if res, run, err = runServe(o); err == nil && o.traced {
			err = traceServe(o, res, run)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("%s: %s names %s, which the run did not measure", o.workload, specFile, d.Name)
		}
	}
	if o.outDir != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(o.outDir, "result-"+o.workload+".json"), data, 0o644); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// contractResult is the last line of a run's standard output: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func contractLine(res *result, traced bool) string {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.Name] = res.Metrics[d.Name]
	}
	line, err := json.Marshal(contractResult{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// runHere runs one workload in this process and prints its metrics; the
// result line comes last. It reports whether every op succeeded.
func runHere(o options) (bool, error) {
	// One process plays both the daemon and its client.
	runtime.GOMAXPROCS(procs())
	res, err := runWorkload(o)
	if err != nil {
		return false, err
	}
	fmt.Printf("env: nproc=%d gomaxprocs=%d clients=%d %s commit=%s seed=%d sequence=%s wall=%.2fs\n",
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.Clients, res.Env.GoVersion, res.Env.Commit, res.Seed, res.SequenceHash, res.WallSeconds)
	res.print("end-to-end", endToEnd)
	if o.traced {
		res.print("per-layer", perLayer)
		if share := res.Metrics["trace.layers_sum_share"].Value; share < 0.85 || share > 1.15 {
			fmt.Printf("  WARNING: the layers sum to %.2f of the envelope; read the per-layer times of this run with care\n", share)
		}
	}
	for _, n := range res.Notes {
		fmt.Println("  NOTE:", n)
	}
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
	fmt.Println(contractLine(res, o.traced))
	return res.Failed == 0, nil
}

// runChild runs one workload in a process of its own, passes its output
// through and returns its result line. peak_rss_mb is the high-water mark of
// a whole process, so workloads that shared one would each report the largest
// so far; a process per workload also gives each the same fresh heap the
// gate's runs have. A run with failed ops returns its result and an error.
func runChild(ctx context.Context, o options) (*contractResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	lines := bufio.NewScanner(out)
	lines.Buffer(nil, 1<<20) // the per-layer result line is a few KB
	for lines.Scan() {
		last = lines.Text()
		fmt.Println(last)
	}
	scanErr := lines.Err()
	if scanErr != nil {
		// The child must still be waited for, and it cannot end while it
		// blocks on a pipe nobody reads.
		_, _ = io.Copy(io.Discard, out)
	}
	waitErr := cmd.Wait()
	if scanErr != nil {
		return nil, fmt.Errorf("%s: reading the run's output: %w", o.workload, scanErr)
	}
	var res contractResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if waitErr != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, waitErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", o.workload, err)
	}
	if waitErr != nil {
		return &res, fmt.Errorf("%s: %d of %d ops failed (%w)", o.workload, res.Failed, res.Attempted, waitErr)
	}
	return &res, nil
}

func main() {
	if err := loadSpec(specFile); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: start me in the repository root:", err)
		os.Exit(1)
	}
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, each in a process of its own)")
		seed         = flag.Int64("seed", 42, "seed of the request order; index-build has no request sequence and runs the same on every seed")
		seconds      = flag.Int("seconds", runSeconds, "sizes the run: the op count is the workload's per-second quota times this")
		trace        = flag.Int("trace", 0, "1 adds the traced replay and reports the per-layer metrics")
		selfcheck    = flag.Bool("selfcheck", false, "run every workload in two alternating sets and fail if the sets' medians disagree beyond the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || (*selfcheck && *trace == 1) {
		flag.Usage()
		os.Exit(2)
	}
	names := workloads
	if *workloadName != "" {
		if _, ok := sizings[*workloadName]; !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		names = []string{*workloadName}
	}
	base := options{seed: *seed, seconds: *seconds, traced: *trace == 1, scale: defaultScale, setups: defaultSetups, outDir: outDir}
	if base.traced {
		base.setups = 1 // the traced run reports no setup_s
	}
	if *workloadName != "" && !*selfcheck {
		base.workload = *workloadName
		ok, err := runHere(base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		if err != nil || !ok {
			os.Exit(1)
		}
		return
	}

	// The other modes run every workload in a child process. A signal that
	// would end this process ends the child it waits for, and then this one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	failed := false
	if *selfcheck {
		if err := runSelfcheck(ctx, base, names); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			failed = true
		}
	} else {
		for _, name := range names {
			o := base
			o.workload = name
			if _, err := runChild(ctx, o); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				failed = true
			}
			if ctx.Err() != nil {
				break
			}
		}
	}
	interrupted := ctx.Err() != nil // stop cancels the context as well
	stop()
	if failed || interrupted {
		os.Exit(1)
	}
}
