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
	"errors"
	"flag"
	"fmt"
	"io"
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
	start := time.Now()
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "benchall:", err)
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	// The one clocked line goes to stderr, so that stdout is the same bytes on
	// every run.
	fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(start).Round(time.Millisecond))
}

// usageError is a bad command line; main exits 2 on it, as flag does.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// run prints the experiments args select to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("benchall", flag.ContinueOnError)
	scaleName := fs.String("scale", "default", "corpus scale: tiny, small or default")
	docs := fs.Int("docs", 0, "override: number of documents")
	docBytes := fs.Int("docbytes", 0, "override: approximate bytes per document")
	exps := fs.String("exp", "all", "comma-separated experiments, or 'all': "+strings.Join(experiments, ", "))
	repeats := fs.Int("repeats", 16, "workload repetitions for figure 10")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err.Error()}
	}

	scale := bench.Default()
	switch *scaleName {
	case "tiny":
		scale = bench.Tiny()
	case "small":
		scale = bench.Small()
	case "default":
	default:
		return usageError{fmt.Sprintf("unknown scale %q", *scaleName)}
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
			return usageError{fmt.Sprintf("unknown experiment %q; valid: all, %s", e, strings.Join(experiments, ", "))}
		}
		want[e] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	fmt.Fprintf(w, "corpus: %d documents x ~%d KB (%.4f%% of the paper's 40 GB), seed 42\n\n",
		scale.Docs, scale.DocBytes/1024, scale.PaperFraction()*100)

	corpus, err := bench.NewCorpus(scale)
	if err != nil {
		return err
	}
	frac := scale.PaperFraction()

	needEnv := sel("table4") || sel("table5") || sel("table6") || sel("fig9") ||
		sel("fig9detail") || sel("fig10") || sel("fig11") || sel("fig12") ||
		sel("fig13") || sel("ablations") || sel("advisor")
	var env *bench.QueryEnv
	if needEnv {
		env, err = bench.NewQueryEnv(corpus)
		if err != nil {
			return err
		}
	}

	if sel("table4") {
		fmt.Fprintln(w, bench.Table4(env.Rows, frac))
		// The same corpus again with the cross-document bulk loader, for
		// the uploading/total deltas and the billed-request reduction.
		bulkRows, err := bench.RunIndexingCfg(corpus, core.Config{BulkLoad: true}, 8, ec2.Large)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.Table4Bulk(env.Rows, bulkRows, frac))
	}
	if sel("fig7") {
		points, err := bench.RunFig7(corpus, 8, ec2.Large)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.Fig7(points))
		bulkPoints, err := bench.RunFig7Cfg(corpus, core.Config{BulkLoad: true}, 8, ec2.Large)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.Fig7Titled(bulkPoints,
			"Figure 7 (bulk loading): indexing time (modeled seconds) vs corpus size, 8 large instances"))
	}
	if sel("fig8") {
		rows, xmlBytes, err := bench.RunFig8(corpus)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.Fig8(rows, xmlBytes))
	}
	if sel("table5") {
		rows, err := bench.RunTable5(env)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.Table5(rows, len(corpus.Docs)))
	}

	var cells []bench.Fig9Cell
	if sel("fig9") || sel("fig9detail") || sel("fig11") || sel("fig12") || sel("fig13") {
		cells, err = bench.RunFig9(env)
		if err != nil {
			return err
		}
	}
	if sel("fig9") {
		fmt.Fprintln(w, bench.Fig9a(cells))
		fmt.Fprintln(w, bench.Fig9aChart(cells, "xl"))
	}
	if sel("fig9detail") {
		fmt.Fprintln(w, bench.Fig9Detail(cells, "l"))
		fmt.Fprintln(w, bench.Fig9Detail(cells, "xl"))
	}
	if sel("fig10") {
		f10, err := bench.RunFig10(env, *repeats)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.Fig10(f10, *repeats))
	}
	if sel("table6") {
		fmt.Fprintln(w, bench.Table6(env.Rows, frac, scale.DocsFraction()))
	}
	if sel("fig11") {
		fmt.Fprintln(w, bench.Fig11(cells))
	}
	if sel("fig12") {
		fmt.Fprintln(w, bench.Fig12(cells))
	}
	if sel("fig13") {
		rows13 := bench.RunFig13(env.Rows, cells, 20)
		fmt.Fprintln(w, bench.Fig13(rows13))
		fmt.Fprintln(w, bench.Fig13Chart(rows13))
	}
	if sel("table7") || sel("table8") {
		rows, storage, err := bench.RunCompare(corpus)
		if err != nil {
			return err
		}
		if sel("table7") {
			fmt.Fprintln(w, bench.Table7(rows, storage))
		}
		if sel("table8") {
			fmt.Fprintln(w, bench.Table8(rows))
		}
	}
	if sel("advisor") {
		out, err := bench.RunAdvisorAccuracy(env, 2)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	}
	if sel("ablations") {
		enc, err := bench.RunAblationIDEncoding(corpus)
		if err != nil {
			return err
		}
		bat, err := bench.RunAblationBatching(corpus)
		if err != nil {
			return err
		}
		pc, err := bench.RunAblationPathCompression(corpus)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ablations (DESIGN.md design choices)")
		for _, r := range append(append(enc, bat...), pc...) {
			fmt.Fprintln(w, "  "+r.String())
		}
		semi, err := bench.RunAblationSemijoin(env)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, semi)
	}

	return nil
}
