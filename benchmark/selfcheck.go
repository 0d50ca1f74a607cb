package main

import (
	"context"
	"fmt"
	"math"
)

// selfcheckRuns is how many runs of a workload make one set. One pair of runs
// cannot tell the benchmark's noise from a regression: the clocked metrics of
// two runs of one binary differ by more than their bound now and then.
const selfcheckRuns = 3

// runSelfcheck is the benchmark checking that it is steady enough to gate
// with. Every workload is run 2 x selfcheckRuns times, each run a process of
// its own as the gate's are, alternating between two sets so that a drift of
// the machine reaches both; the sets use the same seeds. It fails if the
// median of an end-to-end metric differs between the sets by more than the
// metric's own bound. Every run prints its per-round values, so an over-tight
// bound shows as spread rather than as a flaky gate.
func runSelfcheck(ctx context.Context, base options, names []string) error {
	// values[set][workload][metric] holds one value per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, name := range names {
			values[set][name] = make(map[string][]float64)
		}
	}
	for _, name := range names {
		for i := 0; i < 2*selfcheckRuns; i++ {
			set, o := i%2, base
			o.workload, o.seed = name, base.seed+int64(i/2)
			fmt.Printf("selfcheck: %s, set %d, run %d of %d, seed %d\n", name, set+1, i/2+1, selfcheckRuns, o.seed)
			res, err := runChild(ctx, o)
			if err != nil {
				return err
			}
			for _, d := range endToEnd {
				values[set][name][d.Name] = append(values[set][name][d.Name], res.Metrics[d.Name].Value)
			}
		}
	}
	bad := 0
	fmt.Printf("medians of %d runs; spread = (max-min)/median of a set's runs\n", selfcheckRuns)
	fmt.Printf("%-16s %-28s %12s %7s %12s %7s %8s %8s\n", "workload", "metric", "set 1", "spread", "set 2", "spread", "differ", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			v1, v2 := values[0][name][d.Name], values[1][name][d.Name]
			a, b := median(v1), median(v2)
			differ := math.Abs(b-a) / math.Abs(a)
			verdict := ""
			if differ > d.Bound {
				verdict = "  BEYOND BOUND"
				bad++
			}
			fmt.Printf("%-16s %-28s %12.6g %6.1f%% %12.6g %6.1f%% %7.2f%% %7.2f%%%s\n",
				name, d.Name, a, 100*spreadShare(v1), b, 100*spreadShare(v2), 100*differ, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two sets of runs of the same code by more than their bound", bad)
	}
	fmt.Println("selfcheck: both sets agree within every bound")
	return nil
}
