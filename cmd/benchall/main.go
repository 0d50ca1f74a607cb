// Command benchall runs the paper's entire evaluation (Section 8) on the
// simulated cloud and prints each table and figure in a paper-style layout.
//
// Usage:
//
//	benchall [-scale tiny|small|default] [-docs N -docbytes N]
//	         [-exp table4,fig7,...|all] [-repeats N]
//
// Experiments: table4, fig7, fig8, table5, fig9, fig9detail, fig10,
// table6, fig11, fig12, fig13, table7, table8, ablations, advisor. A name
// that is none of these (nor "all") exits 2 with the list.
//
// Standard output is byte-deterministic: two runs with the same flags print
// the same bytes. The wall-clock time of the run ("done in …") goes to
// standard error.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cloud/ec2"
	"repro/internal/core"
)

// experiments lists what -exp accepts besides "all".
var experiments = []string{"table4", "fig7", "fig8", "table5", "fig9", "fig9detail", "fig10",
	"table6", "fig11", "fig12", "fig13", "table7", "table8", "ablations", "advisor"}

func main() {
	scaleName := flag.String("scale", "default", "corpus scale: tiny, small or default")
	docs := flag.Int("docs", 0, "override: number of documents")
	docBytes := flag.Int("docbytes", 0, "override: approximate bytes per document")
	exps := flag.String("exp", "all", "comma-separated experiments, or 'all': "+strings.Join(experiments, ", "))
	repeats := flag.Int("repeats", 16, "workload repetitions for figure 10")
	flag.Parse()

	scale := bench.Default()
	switch *scaleName {
	case "tiny":
		scale = bench.Tiny()
	case "small":
		scale = bench.Small()
	case "default":
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *docs > 0 {
		scale.Docs = *docs
		scale.Name = "custom"
	}
	if *docBytes > 0 {
		scale.DocBytes = *docBytes
		scale.Name = "custom"
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		e = strings.TrimSpace(e)
		if e != "all" && !slices.Contains(experiments, e) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: all, %s\n", e, strings.Join(experiments, ", "))
			os.Exit(2)
		}
		want[e] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	start := time.Now()
	fmt.Printf("corpus: %d documents x ~%d KB (%.4f%% of the paper's 40 GB), seed 42\n\n",
		scale.Docs, scale.DocBytes/1024, scale.PaperFraction()*100)

	corpus, err := bench.NewCorpus(scale)
	check(err)
	frac := scale.PaperFraction()

	needEnv := sel("table4") || sel("table5") || sel("table6") || sel("fig9") ||
		sel("fig9detail") || sel("fig10") || sel("fig11") || sel("fig12") ||
		sel("fig13") || sel("ablations") || sel("advisor")
	var env *bench.QueryEnv
	if needEnv {
		env, err = bench.NewQueryEnv(corpus)
		check(err)
	}

	if sel("table4") {
		fmt.Println(bench.Table4(env.Rows, frac))
		// The same corpus again with the cross-document bulk loader, for
		// the uploading/total deltas and the billed-request reduction.
		bulkRows, err := bench.RunIndexingCfg(corpus, core.Config{BulkLoad: true}, 8, ec2.Large)
		check(err)
		fmt.Println(bench.Table4Bulk(env.Rows, bulkRows, frac))
	}
	if sel("fig7") {
		points, err := bench.RunFig7(corpus, 8, ec2.Large)
		check(err)
		fmt.Println(bench.Fig7(points))
		bulkPoints, err := bench.RunFig7Cfg(corpus, core.Config{BulkLoad: true}, 8, ec2.Large)
		check(err)
		fmt.Println(bench.Fig7Titled(bulkPoints,
			"Figure 7 (bulk loading): indexing time (modeled seconds) vs corpus size, 8 large instances"))
	}
	if sel("fig8") {
		rows, xmlBytes, err := bench.RunFig8(corpus)
		check(err)
		fmt.Println(bench.Fig8(rows, xmlBytes))
	}
	if sel("table5") {
		rows, err := bench.RunTable5(env)
		check(err)
		fmt.Println(bench.Table5(rows, len(corpus.Docs)))
	}

	var cells []bench.Fig9Cell
	if sel("fig9") || sel("fig9detail") || sel("fig11") || sel("fig12") || sel("fig13") {
		cells, err = bench.RunFig9(env)
		check(err)
	}
	if sel("fig9") {
		fmt.Println(bench.Fig9a(cells))
		fmt.Println(bench.Fig9aChart(cells, "xl"))
	}
	if sel("fig9detail") {
		fmt.Println(bench.Fig9Detail(cells, "l"))
		fmt.Println(bench.Fig9Detail(cells, "xl"))
	}
	if sel("fig10") {
		f10, err := bench.RunFig10(env, *repeats)
		check(err)
		fmt.Println(bench.Fig10(f10, *repeats))
	}
	if sel("table6") {
		fmt.Println(bench.Table6(env.Rows, frac, scale.DocsFraction()))
	}
	if sel("fig11") {
		fmt.Println(bench.Fig11(cells))
	}
	if sel("fig12") {
		fmt.Println(bench.Fig12(cells))
	}
	if sel("fig13") {
		rows13 := bench.RunFig13(env.Rows, cells, 20)
		fmt.Println(bench.Fig13(rows13))
		fmt.Println(bench.Fig13Chart(rows13))
	}
	if sel("table7") || sel("table8") {
		rows, storage, err := bench.RunCompare(corpus)
		check(err)
		if sel("table7") {
			fmt.Println(bench.Table7(rows, storage))
		}
		if sel("table8") {
			fmt.Println(bench.Table8(rows))
		}
	}
	if sel("advisor") {
		out, err := bench.RunAdvisorAccuracy(env, 2)
		check(err)
		fmt.Println(out)
	}
	if sel("ablations") {
		enc, err := bench.RunAblationIDEncoding(corpus)
		check(err)
		bat, err := bench.RunAblationBatching(corpus)
		check(err)
		pc, err := bench.RunAblationPathCompression(corpus)
		check(err)
		fmt.Println("Ablations (DESIGN.md design choices)")
		for _, r := range append(append(enc, bat...), pc...) {
			fmt.Println("  " + r.String())
		}
		semi, err := bench.RunAblationSemijoin(env)
		check(err)
		fmt.Println()
		fmt.Println(semi)
	}

	// The one clocked line goes to stderr, so that stdout is the same bytes on
	// every run.
	fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(start).Round(time.Millisecond))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchall:", err)
		os.Exit(1)
	}
}
