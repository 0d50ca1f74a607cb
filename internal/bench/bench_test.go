package bench

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/pattern"
)

// The shape tests below are the machine-checked counterpart of
// EXPERIMENTS.md: each asserts the qualitative findings of one paper table
// or figure (who wins, by roughly what factor, where crossings fall) on
// the scaled corpus.

var (
	envOnce    sync.Once
	envCorpus  *Corpus
	envShared  *QueryEnv
	envCells   []Fig9Cell
	envErr     error
	shapeScale = Scale{Name: "shape", Docs: 240, DocBytes: 4 << 10}
)

func sharedEnv(t *testing.T) (*QueryEnv, []Fig9Cell) {
	t.Helper()
	envOnce.Do(func() {
		envCorpus, envErr = NewCorpus(shapeScale)
		if envErr != nil {
			return
		}
		envShared, envErr = NewQueryEnv(envCorpus)
		if envErr != nil {
			return
		}
		envCells, envErr = RunFig9(envShared)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envShared, envCells
}

func durOf(rows []IndexingRow, s index.Strategy) float64 {
	for _, r := range rows {
		if r.Strategy == s {
			return r.Total.Seconds()
		}
	}
	return -1
}

// Table 4 / Figure 7 shape: indexing time ordering LU < LUI < LUP < 2LUPI,
// and near-linear scaling in corpus size.
func TestIndexingTimeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, _ := sharedEnv(t)
	rows := e.Rows
	lu, lui, lup, two := durOf(rows, index.LU), durOf(rows, index.LUI), durOf(rows, index.LUP), durOf(rows, index.TwoLUPI)
	if !(lu < lui && lui < lup && lup < two) {
		t.Errorf("indexing time ordering: LU=%.2f LUI=%.2f LUP=%.2f 2LUPI=%.2f", lu, lui, lup, two)
	}
	// Figure 7: linear in data size. Compare LUP on a quarter of the corpus
	// with the full corpus's run above, which is Figure 7's last point
	// (RunFig7 indexes each fraction as RunIndexing does; the goldens hold
	// its whole series).
	n := len(e.Corpus.Docs) / 4
	quarter := &Corpus{Scale: e.Corpus.Scale, Docs: e.Corpus.Docs[:n], Parsed: e.Corpus.Parsed[:n]}
	_, rep, _, err := BuildWarehouseCfg(quarter, core.Config{Strategy: index.LUP}, 8, ec2.Large)
	if err != nil {
		t.Fatal(err)
	}
	ratio := lup / rep.Total.Seconds()
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("Fig7 linearity: full/quarter = %.2f, want ~4", ratio)
	}
}

// Figure 8 shape: index size ordering, keyword-free indexes smaller, and a
// noticeable (but sublinear) store overhead.
func TestIndexSizeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, _ := sharedEnv(t)
	rows, xmlBytes, err := RunFig8(e.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	size := map[index.Strategy]int64{}
	for _, r := range rows {
		size[r.Strategy] = r.FullText.RawBytes
		if r.NoKeywords.RawBytes >= r.FullText.RawBytes {
			t.Errorf("%s: keyword-free index not smaller", r.Strategy.Name())
		}
		if r.FullText.OvhBytes <= 0 {
			t.Errorf("%s: no store overhead measured", r.Strategy.Name())
		}
		if r.FullText.MonthlyCost <= r.NoKeywords.MonthlyCost {
			t.Errorf("%s: full-text storage not costlier", r.Strategy.Name())
		}
	}
	if !(size[index.LU] < size[index.LUI] && size[index.LUI] < size[index.LUP] && size[index.LUP] < size[index.TwoLUPI]) {
		t.Errorf("index size ordering violated: %v", size)
	}
	// LUP and 2LUPI full-text indexes are in the order of the data itself.
	if size[index.TwoLUPI] < xmlBytes/2 {
		t.Errorf("2LUPI index (%d) implausibly small next to data (%d)", size[index.TwoLUPI], xmlBytes)
	}
}

// Table 5 shape: LU ⊇ LUP ⊇ LUI = 2LUPI, LUI exact except for the range
// query q5, and at least one strict gap at each refinement step.
func TestSelectivityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, _ := sharedEnv(t)
	rows, err := RunTable5(e)
	if err != nil {
		t.Fatal(err)
	}
	var luGap, lupGap bool
	for _, r := range rows {
		lu, lup, lui, two := r.DocIDs[index.LU], r.DocIDs[index.LUP], r.DocIDs[index.LUI], r.DocIDs[index.TwoLUPI]
		if !(lu >= lup && lup >= lui) {
			t.Errorf("%s: LU=%d LUP=%d LUI=%d not monotone", r.Query, lu, lup, lui)
		}
		if lui != two {
			t.Errorf("%s: LUI=%d != 2LUPI=%d", r.Query, lui, two)
		}
		if lui < r.DocsResults {
			t.Errorf("%s: LUI=%d below true %d (false negatives)", r.Query, lui, r.DocsResults)
		}
		if lu > lup {
			luGap = true
		}
		if lup > lui {
			lupGap = true
		}
	}
	if !luGap {
		t.Error("no query shows LU > LUP")
	}
	if !lupGap {
		t.Error("no query shows LUP > LUI")
	}
	// q1 is the point query.
	if rows[0].DocsResults != 1 {
		t.Errorf("q1 matches %d documents, want 1", rows[0].DocsResults)
	}
	// q5 carries a range predicate. Section 5.5: ranges are ignored at
	// look-up — the look-up of q5 must equal the look-up of q5 with the
	// range stripped, under every strategy.
	q5 := e.Queries[4].Parse()
	stripped := e.Queries[4].Parse()
	for _, tr := range stripped.Patterns {
		tr.Walk(func(n *pattern.Node) {
			if n.Pred.Kind == pattern.Range {
				n.Pred = pattern.Pred{}
			}
		})
	}
	for _, s := range Strategies() {
		w := e.Warehouse(AccessPath(s.Name()))
		a, _, err := index.LookupQuery(w.Store(), s, q5)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := index.LookupQuery(w.Store(), s, stripped)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: range predicate influenced the look-up: %v vs %v", s.Name(), a, b)
		}
	}
}

// Figure 9 shape: every index beats no-index on every query; xl beats l;
// the best index wins by a large factor overall.
func TestResponseTimeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	_, cells := sharedEnv(t)
	byKey := map[string]Fig9Cell{}
	for _, c := range cells {
		byKey[c.Query+"/"+string(c.Access)+"/"+c.Instance] = c
	}
	var sumNo, sumBest float64
	for _, q := range envShared.Queries {
		for _, inst := range []string{"l", "xl"} {
			no := byKey[q.Name+"/none/"+inst]
			for _, s := range Strategies() {
				c := byKey[q.Name+"/"+s.Name()+"/"+inst]
				if c.Response >= no.Response {
					t.Errorf("%s %s via %s (%v) not faster than no index (%v)",
						q.Name, inst, s.Name(), c.Response, no.Response)
				}
			}
		}
		// xl is never slower than l; equality is possible when a query
		// fetches so few documents that core count does not matter.
		l := byKey[q.Name+"/LUP/l"]
		xl := byKey[q.Name+"/LUP/xl"]
		if xl.Response > l.Response {
			t.Errorf("%s: xl (%v) slower than l (%v)", q.Name, xl.Response, l.Response)
		}
		sumNo += byKey[q.Name+"/none/xl"].Response.Seconds()
		sumBest += byKey[q.Name+"/LUP/xl"].Response.Seconds()
	}
	// Over the whole workload the stronger instance type must win strictly
	// (Figure 9a: "for every query, the xl running times are shorter").
	var wlL, wlXL float64
	for _, c := range cells {
		if c.Access != NoIndex {
			continue
		}
		if c.Instance == "l" {
			wlL += c.Response.Seconds()
		} else {
			wlXL += c.Response.Seconds()
		}
	}
	if wlXL >= wlL {
		t.Errorf("no-index workload: xl (%.2fs) not faster than l (%.2fs)", wlXL, wlL)
	}
	if sumNo/sumBest < 3 {
		t.Errorf("workload speedup = %.1fx, want >= 3x", sumNo/sumBest)
	}
	// Decomposition present and overlap property: response <= components sum.
	for _, c := range cells {
		if c.Access == NoIndex {
			continue
		}
		sum := c.LookupGet + c.Plan + c.FetchEval
		if c.Response > sum+sum/10 {
			t.Errorf("%s/%s response %v above components %v", c.Query, c.Access, c.Response, sum)
		}
	}
}

// Figure 11/12 shape: indexing cuts workload cost by a large margin and
// the cost is nearly machine-type independent.
func TestQueryCostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	_, cells := sharedEnv(t)
	noL := WorkloadCost(cells, NoIndex, "l")
	for _, s := range Strategies() {
		a := AccessPath(s.Name())
		idxL := WorkloadCost(cells, a, "l")
		idxXL := WorkloadCost(cells, a, "xl")
		saving := 1 - float64(idxL/noL)
		if saving < 0.6 {
			t.Errorf("%s: cost saving %.2f, want >= 0.6", s.Name(), saving)
		}
		ratio := float64(idxXL / idxL)
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("%s: xl/l cost ratio %.2f, want ~1 (machine-type independent)", s.Name(), ratio)
		}
	}
}

// Figure 13 shape: every strategy amortizes; LU first, 2LUPI last.
func TestAmortizationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, cells := sharedEnv(t)
	rows := RunFig13(e.Rows, cells, 20)
	be := map[index.Strategy]int{}
	for _, r := range rows {
		if r.Benefit <= 0 {
			t.Errorf("%s: non-positive benefit %v", r.Strategy.Name(), r.Benefit)
		}
		if r.BreakEven < 0 {
			t.Errorf("%s: never amortizes", r.Strategy.Name())
		}
		be[r.Strategy] = r.BreakEven
	}
	if !(be[index.LU] <= be[index.LUP] && be[index.LU] <= be[index.LUI] &&
		be[index.LUP] <= be[index.TwoLUPI] && be[index.LUI] <= be[index.TwoLUPI] &&
		be[index.LU] < be[index.TwoLUPI]) {
		t.Errorf("amortization ordering: %v", be)
	}
}

// Figure 10 shape: 8 instances are several times faster than 1.
func TestParallelismShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, _ := sharedEnv(t)
	cells, err := RunFig10(e, 2) // 2 repeats keep the test fast; benchall uses 16
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]map[int]float64{}
	for _, c := range cells {
		k := string(c.Access) + "/" + c.Instance
		if byKey[k] == nil {
			byKey[k] = map[int]float64{}
		}
		byKey[k][c.Instances] = c.Total.Seconds()
	}
	for k, v := range byKey {
		speedup := v[1] / v[8]
		if speedup < 3 || speedup > 8.5 {
			t.Errorf("%s: speedup %.2f, want in [3, 8.5]", k, speedup)
		}
	}
}

// Tables 7/8 shape: the DynamoDB backend indexes and queries faster and
// cheaper than the SimpleDB backend.
func TestBackendComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	c, err := NewCorpus(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	rows, storage, err := RunCompare(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.IndexMsPerMB["dynamodb"]*2 > r.IndexMsPerMB["simpledb"] {
			t.Errorf("%s: indexing on dynamodb (%.1f ms/MB) not clearly faster than simpledb (%.1f)",
				r.Strategy.Name(), r.IndexMsPerMB["dynamodb"], r.IndexMsPerMB["simpledb"])
		}
		if r.IndexUSDPerMB["dynamodb"] >= r.IndexUSDPerMB["simpledb"] {
			t.Errorf("%s: indexing on dynamodb not cheaper", r.Strategy.Name())
		}
		if r.QueryMsPerMB["dynamodb"] >= r.QueryMsPerMB["simpledb"] {
			t.Errorf("%s: querying on dynamodb not faster", r.Strategy.Name())
		}
	}
	if storage.IndexPerGB["dynamodb"] <= storage.IndexPerGB["simpledb"] {
		// The paper reports DynamoDB's higher per-GB storage price
		// (1.14 vs 0.275): storage is the one axis SimpleDB wins.
		t.Errorf("storage: dynamodb %v should be pricier per GB than simpledb %v",
			storage.IndexPerGB["dynamodb"], storage.IndexPerGB["simpledb"])
	}
}

// Ablation smoke checks.
func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	c, err := NewCorpus(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := RunAblationIDEncoding(c)
	if err != nil {
		t.Fatal(err)
	}
	if enc[0].B >= enc[0].A {
		t.Errorf("binary IDs not smaller: %s", enc[0])
	}
	bat, err := RunAblationBatching(c)
	if err != nil {
		t.Fatal(err)
	}
	if bat[0].B >= bat[0].A {
		t.Errorf("batching does not reduce requests: %s", bat[0])
	}
	if bat[1].B >= bat[1].A {
		t.Errorf("batching does not reduce time: %s", bat[1])
	}
	pc, err := RunAblationPathCompression(c)
	if err != nil {
		t.Fatal(err)
	}
	if pc[0].B >= pc[0].A {
		t.Errorf("path compression does not shrink the index: %s", pc[0])
	}

	e, _ := sharedEnv(t)
	semi, err := RunAblationSemijoin(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(semi, "q1") {
		t.Errorf("semijoin report incomplete:\n%s", semi)
	}
}

// Advisor accuracy (extension experiment): with the full corpus as the
// sample, the estimated look-up sizes equal the measured ones exactly.
func TestAdvisorAccuracyExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, _ := sharedEnv(t)
	out, err := RunAdvisorAccuracy(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With SampleEvery=1 every "est / meas" pair must be equal.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "q") || strings.HasPrefix(line, "query") {
			continue
		}
		cells := strings.Split(line, "|")[1:]
		for _, c := range cells {
			parts := strings.Split(c, "/")
			if len(parts) != 2 {
				continue
			}
			if strings.TrimSpace(parts[0]) != strings.TrimSpace(parts[1]) {
				t.Errorf("estimate differs from measurement: %q", line)
			}
		}
	}
	if !strings.Contains(out, "recommendation") {
		t.Error("missing recommendation line")
	}
}

// Rendering smoke tests: every table/figure prints with its headline.
func TestRenderers(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, cells := sharedEnv(t)
	t5, err := RunTable5(e)
	if err != nil {
		t.Fatal(err)
	}
	frac := shapeScale.PaperFraction()
	outputs := map[string]string{
		"Table 4":   Table4(e.Rows, frac),
		"Table 5":   Table5(t5, len(e.Corpus.Docs)),
		"Table 6":   Table6(e.Rows, frac, shapeScale.DocsFraction()),
		"Figure 9a": Fig9a(cells),
		"Figure 9b": Fig9Detail(cells, "l"),
		"Figure 9c": Fig9Detail(cells, "xl"),
		"Figure 11": Fig11(cells),
		"Figure 12": Fig12(cells),
		"Figure 13": Fig13(RunFig13(e.Rows, cells, 20)),
	}
	for name, out := range outputs {
		if !strings.Contains(out, name) {
			t.Errorf("%s renderer missing its headline:\n%s", name, out)
		}
		if !strings.Contains(out, "LUP") {
			t.Errorf("%s renderer missing strategies:\n%s", name, out)
		}
	}
}

func TestCharts(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, cells := sharedEnv(t)
	chart := Fig9aChart(cells, "xl")
	if !strings.Contains(chart, "#") || !strings.Contains(chart, "q10") {
		t.Errorf("Fig9aChart incomplete:\n%s", chart)
	}
	// The no-index bar must be the longest for q1 (log scale keeps order).
	var noIdxLen, lupLen int
	for _, line := range strings.Split(chart, "\n") {
		if strings.HasPrefix(line, "q1 ") {
			n := strings.Count(line, "#")
			if strings.Contains(line, "none") {
				noIdxLen = n
			}
			if strings.Contains(line, "LUP") {
				lupLen = n
			}
		}
	}
	if noIdxLen <= lupLen {
		t.Errorf("q1 bars: none=%d not longer than LUP=%d", noIdxLen, lupLen)
	}
	f13 := Fig13Chart(RunFig13(e.Rows, cells, 20))
	if !strings.Contains(f13, "-") || !strings.Contains(f13, "+") {
		t.Errorf("Fig13Chart missing both phases:\n%s", f13)
	}
}
