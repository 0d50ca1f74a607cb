package advisor

import (
	"math"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/meter"
	"repro/internal/pattern"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func corpus(t *testing.T, n int) []*xmltree.Document {
	t.Helper()
	cfg := xmark.DefaultConfig(n)
	cfg.TargetDocBytes = 4 << 10
	var docs []*xmltree.Document
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	return docs
}

func TestSummaryCounts(t *testing.T) {
	docs := corpus(t, 60)
	a, err := New(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := a.Summary
	if s.SampleDocs != 60 || s.TotalDocs != 60 {
		t.Errorf("sample=%d total=%d", s.SampleDocs, s.TotalDocs)
	}
	// Every document holds a site element.
	if got := s.KeyDocs[index.ElementKey("site")]; got != 60 {
		t.Errorf("esite docs = %d, want 60", got)
	}
	// Item documents are 40%% of the corpus.
	if got := s.KeyDocs[index.ElementKey("item")]; got != 24 {
		t.Errorf("eitem docs = %d, want 24", got)
	}
	if s.AvgDocBytes <= 0 {
		t.Error("no average document size")
	}
}

func TestSamplingExtrapolates(t *testing.T) {
	docs := corpus(t, 120)
	full, err := New(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := New(docs, Config{SampleEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Summary.SampleDocs != 30 {
		t.Fatalf("sample size = %d", sampled.Summary.SampleDocs)
	}
	q := pattern.MustParse(`//open_auction[/bidder[/increase]]`)
	ef, _ := full.EstimateQuery(q)
	es, _ := sampled.EstimateQuery(q)
	// The sampled estimate of a common query must land near the full one.
	var fullDocs, sampleDocs float64
	for i := range ef {
		if ef[i].Access == "LUP" {
			fullDocs = ef[i].Docs
			sampleDocs = es[i].Docs
		}
	}
	if fullDocs == 0 {
		t.Fatal("no LUP estimate")
	}
	if ratio := sampleDocs / fullDocs; ratio < 0.5 || ratio > 2 {
		t.Errorf("sampled/full = %.2f (%.1f vs %.1f)", ratio, sampleDocs, fullDocs)
	}
}

// The advisor's selectivity estimates must equal the true look-up sizes
// when the sample is the whole corpus (the predicates are exact).
func TestEstimatesMatchTrueLookupSizes(t *testing.T) {
	docs := corpus(t, 120)
	a, err := New(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	store := dynamodb.New(meter.NewLedger())
	for _, s := range index.All() {
		if err := index.CreateTables(store, s); err != nil {
			t.Fatal(err)
		}
	}
	opts := index.OptionsFor(store)
	for _, d := range docs {
		for _, s := range index.All() {
			if _, _, err := index.LoadDocument(store, s, d, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, wq := range workload.XMark()[:6] {
		q := wq.Parse()
		ests, err := a.EstimateQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ests {
			if e.Access == "none" {
				continue
			}
			s, err := index.ByName(e.Access)
			if err != nil {
				t.Fatal(err)
			}
			per, _, err := index.LookupQuery(store, s, q)
			if err != nil {
				t.Fatal(err)
			}
			truth := 0
			for _, uris := range per {
				truth += len(uris)
			}
			if math.Abs(e.Docs-float64(truth)) > 0.5 {
				t.Errorf("%s under %s: estimated %.1f docs, true %d", wq.Name, e.Access, e.Docs, truth)
			}
		}
	}
}

func TestEstimatesOrdering(t *testing.T) {
	docs := corpus(t, 120)
	a, err := New(docs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The split-feature query: LUI strictly sharper than LUP.
	q := pattern.MustParse(`//item[/location="Zanzibar", /payment~"Creditcard"]`)
	ests, err := a.EstimateQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Estimate{}
	for _, e := range ests {
		byName[e.Access] = e
	}
	if !(byName["LU"].Docs >= byName["LUP"].Docs && byName["LUP"].Docs >= byName["LUI"].Docs) {
		t.Errorf("estimates not monotone: %+v", byName)
	}
	if byName["none"].Docs != 120 {
		t.Errorf("no-index docs = %v", byName["none"].Docs)
	}
	// All indexed paths must be estimated cheaper and faster than none.
	for _, s := range index.All() {
		e := byName[s.Name()]
		if e.Cost >= byName["none"].Cost || e.Time >= byName["none"].Time {
			t.Errorf("%s not estimated better than no index: %+v vs %+v", s.Name(), e, byName["none"])
		}
	}
	// 2LUPI pays double look-ups.
	if byName["2LUPI"].GetOps != 2*byName["LUI"].GetOps {
		t.Errorf("2LUPI ops = %d, LUI ops = %d", byName["2LUPI"].GetOps, byName["LUI"].GetOps)
	}
}

func TestRecommendWorkload(t *testing.T) {
	docs := corpus(t, 120)
	a, err := New(docs, Config{VM: ec2.XL})
	if err != nil {
		t.Fatal(err)
	}
	var queries []*pattern.Query
	for _, wq := range workload.XMark() {
		queries = append(queries, wq.Parse())
	}
	ranked, err := a.Recommend(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 5 {
		t.Fatalf("ranked = %d access paths", len(ranked))
	}
	if ranked[0].Access == "none" {
		t.Errorf("no-index recommended over all strategies: %+v", ranked[0])
	}
	if ranked[len(ranked)-1].Access != "none" {
		t.Errorf("no-index should rank last on this workload, got %s", ranked[len(ranked)-1].Access)
	}
	for _, r := range ranked {
		if len(r.Estimates) != len(queries) {
			t.Errorf("%s: estimates for %d queries, want %d", r.Access, len(r.Estimates), len(queries))
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("empty corpus accepted")
	}
	docs := corpus(t, 4)
	if _, err := New(docs, Config{SampleEvery: 100}); err != nil {
		// One document is still sampled (index 0).
		t.Errorf("sparse sampling failed: %v", err)
	}
}

func TestEstimateQueryValidates(t *testing.T) {
	docs := corpus(t, 20)
	a, _ := New(docs, Config{})
	if _, err := a.EstimateQuery(&pattern.Query{}); err == nil {
		t.Error("invalid query accepted")
	}
}
