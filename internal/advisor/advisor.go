// Package advisor implements the index advisor the paper leaves as future
// work: Section 8.5 suggests that the cases where fine-granularity
// strategies (LUI, 2LUPI) pay off "can be statically detected by using
// data summaries and some statistical information", and Section 9
// announces "a platform and index advisor tool, which based on the
// expected dataset and workload, estimates an application's performance
// and cost and picks the best indexing strategy to use".
//
// The advisor builds two artifacts from a corpus sample:
//
//   - a Summary: per-key and per-path document frequencies, a compact data
//     summary in the spirit of dataguides;
//   - a strategy-selectivity estimator: the per-document look-up
//     predicates of package index evaluated over the sample, extrapolated
//     to the full corpus.
//
// From those, Evaluate estimates — without building any index — each
// strategy's per-query look-up size, response time and monetary cost
// under the Section 7 cost model, and Recommend picks the cheapest (or
// fastest) strategy for a whole workload, including "no index" when the
// workload would not amortize an index.
package advisor

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/pricing"
	"repro/internal/xmltree"
)

// Summary is the data summary: document frequencies of index keys and of
// label paths over the sampled corpus.
type Summary struct {
	SampleDocs  int
	TotalDocs   int
	AvgDocBytes int64
	// KeyDocs counts, per index key (e‖label, a‖name, a‖name value,
	// w‖word), the sampled documents containing it.
	KeyDocs map[string]int
	// PathDocs counts, per stored label path, the sampled documents
	// containing it.
	PathDocs map[string]int
}

// scaleFactor extrapolates sample counts to the full corpus.
func (s *Summary) scaleFactor() float64 {
	if s.SampleDocs == 0 {
		return 0
	}
	return float64(s.TotalDocs) / float64(s.SampleDocs)
}

// Advisor estimates per-strategy behaviour from a corpus sample.
type Advisor struct {
	Summary *Summary
	sample  []*xmltree.Document
	book    pricing.PriceBook
	perf    core.PerfModel
	vm      ec2.InstanceType
}

// Config tunes the advisor.
type Config struct {
	// SampleEvery keeps one document in SampleEvery (default 1: the whole
	// corpus is the sample).
	SampleEvery int
	// TotalDocs is the expected corpus size the sample represents; zero
	// means "the sample is the corpus".
	TotalDocs int
	// VM is the instance type queries will run on (default xl).
	VM ec2.InstanceType
	// Perf overrides the performance model.
	Perf core.PerfModel
}

// New builds an advisor from (a sample of) the corpus.
func New(docs []*xmltree.Document, cfg Config) (*Advisor, error) {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.VM.Name == "" {
		cfg.VM = ec2.XL
	}
	a := &Advisor{
		Summary: &Summary{
			KeyDocs:  make(map[string]int),
			PathDocs: make(map[string]int),
		},
		book: pricing.Singapore2012(),
		perf: cfg.Perf,
		vm:   cfg.VM,
	}
	a.perf = perfWithDefaults(a.perf)
	var totalBytes int64
	for i, d := range docs {
		if i%cfg.SampleEvery != 0 {
			continue
		}
		a.sample = append(a.sample, d)
		totalBytes += d.SourceBytes
		keys, paths := index.KeysAndPaths(d)
		for _, k := range keys {
			a.Summary.KeyDocs[k]++
		}
		for _, p := range paths {
			a.Summary.PathDocs[p]++
		}
	}
	if len(a.sample) == 0 {
		return nil, fmt.Errorf("advisor: empty sample")
	}
	a.Summary.SampleDocs = len(a.sample)
	a.Summary.TotalDocs = cfg.TotalDocs
	if a.Summary.TotalDocs < len(docs) {
		a.Summary.TotalDocs = len(docs)
	}
	a.Summary.AvgDocBytes = totalBytes / int64(len(a.sample))
	return a, nil
}

func perfWithDefaults(p core.PerfModel) core.PerfModel {
	d := core.DefaultPerfModel()
	if p.ParseBytesPerECUSec <= 0 {
		p.ParseBytesPerECUSec = d.ParseBytesPerECUSec
	}
	if p.EvalBytesPerECUSec <= 0 {
		p.EvalBytesPerECUSec = d.EvalBytesPerECUSec
	}
	if p.PlanBytesPerECUSec <= 0 {
		p.PlanBytesPerECUSec = d.PlanBytesPerECUSec
	}
	if p.ExtractBytesPerECUSec <= 0 {
		p.ExtractBytesPerECUSec = d.ExtractBytesPerECUSec
	}
	return p
}

// Estimate is one strategy's predicted behaviour for one query.
type Estimate struct {
	// Access is a strategy name, or "none" for the no-index baseline.
	Access string
	// Docs is the estimated number of documents the look-up returns
	// (|D^q_I|; the whole corpus for "none").
	Docs float64
	// GetOps is the exact number of index get operations the look-up
	// issues (|op(q,D,I)|), derived from the query structure.
	GetOps int64
	// Time is the estimated modeled response time.
	Time time.Duration
	// Cost is the estimated per-query cost under the Section 7 model.
	Cost pricing.USD
}

// EstimateQuery predicts every access path's behaviour for one query.
func (a *Advisor) EstimateQuery(q *pattern.Query) ([]Estimate, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	scale := a.Summary.scaleFactor()
	out := []Estimate{{
		Access: "none",
		Docs:   float64(a.Summary.TotalDocs),
	}}
	for _, s := range index.All() {
		var docs float64
		var getOps int64
		for _, t := range q.Patterns {
			pred := index.DocPredicate(s, t)
			n := 0
			for _, d := range a.sample {
				if pred(d) {
					n++
				}
			}
			docs += float64(n) * scale
			getOps += lookupOps(s, t)
		}
		out = append(out, Estimate{Access: s.Name(), Docs: docs, GetOps: getOps})
	}
	for i := range out {
		a.fill(&out[i])
	}
	return out, nil
}

// lookupOps counts the index keys a look-up touches, mirroring the
// look-up algorithms' key derivation.
func lookupOps(s index.Strategy, t *pattern.Tree) int64 {
	q := &pattern.Query{Patterns: []*pattern.Tree{t}}
	// Labels plus predicate-derived word/value keys; 2LUPI touches both
	// sub-indexes.
	n := int64(len(q.Labels()))
	t.Walk(func(nd *pattern.Node) {
		switch nd.Pred.Kind {
		case pattern.Eq, pattern.Contains:
			if !nd.IsAttr {
				n += int64(len(xmltree.Words(nd.Pred.Const)))
			}
		}
	})
	if s == index.TwoLUPI {
		n *= 2
	}
	return n
}

// fill derives time and cost from the document estimate.
func (a *Advisor) fill(e *Estimate) {
	perCore := func(rate float64) float64 { return rate * a.vm.ECUPerCore }
	docBytes := float64(a.Summary.AvgDocBytes)
	// Per-document task: S3 round trip + transfer + parse + evaluate;
	// tasks spread over the machine's cores.
	s3 := 20*time.Millisecond.Seconds() + docBytes/(40<<20)
	cpu := docBytes/perCore(a.perf.ParseBytesPerECUSec) + docBytes/perCore(a.perf.EvalBytesPerECUSec)
	perDoc := s3 + cpu
	seconds := e.Docs * perDoc / float64(a.vm.Cores)
	// Look-up round trips are serial on the coordinator core.
	seconds += float64(e.GetOps) * (4 * time.Millisecond).Seconds()
	e.Time = time.Duration(seconds * float64(time.Second))

	e.Cost = costmodel.QueryCostIndexed(a.book, costmodel.QueryMetrics{
		IndexGetOps:     e.GetOps,
		DocsRetrieved:   int64(e.Docs + 0.5),
		ProcessingHours: e.Time.Hours(),
		VMType:          a.vm.Name,
	})
}

// BuildEstimate predicts what indexing the corpus under a strategy would
// produce and cost, extrapolated from sample extraction.
type BuildEstimate struct {
	Strategy index.Strategy
	// Entries and Items are the predicted index entry and store item
	// counts (|op(D,I)| under per-row billing).
	Entries int64
	Items   int64
	// RawBytes is the predicted sr(D,I).
	RawBytes int64
	// Cost is the predicted build cost under the Section 7 model, with
	// indexing time derived from the store's write capacity.
	Cost pricing.USD
}

// EstimateBuild extracts the sample under the strategy and scales the
// counts to the full corpus; the monetary estimate follows ci$(D,I) with
// the indexing time approximated by the index volume over the store's
// aggregate write capacity (the paper's observed bottleneck).
func (a *Advisor) EstimateBuild(s index.Strategy) BuildEstimate {
	opts := index.DefaultOptions()
	var entries, bytes int64
	for _, d := range a.sample {
		ex := index.Extract(s, d, opts)
		entries += int64(ex.Entries)
		bytes += ex.Bytes
	}
	scale := a.Summary.scaleFactor()
	est := BuildEstimate{
		Strategy: s,
		Entries:  int64(float64(entries) * scale),
		RawBytes: int64(float64(bytes) * scale),
	}
	// One item per entry at these entry sizes; oversized entries split,
	// which the scaled byte volume captures well enough for an estimate.
	est.Items = est.Entries
	// Upload-bound indexing time: write units over aggregate capacity.
	perf := dynamodb.DefaultPerf()
	units := float64(est.RawBytes)/float64(perf.WriteUnitBytes) + float64(est.Items)
	hours := units / perf.WriteCapacityUnits / 3600
	est.Cost = costmodel.IndexBuildCost(a.book, costmodel.DatasetMetrics{
		Docs:          int64(a.Summary.TotalDocs),
		IndexPutOps:   est.Items,
		IndexingHours: hours,
		VMType:        a.vm.Name,
		VMCount:       1,
	})
	return est
}

// Recommendation is the advisor's verdict for a workload.
type Recommendation struct {
	Access string
	// PerRunCost and PerRunTime sum the workload's queries.
	PerRunCost pricing.USD
	PerRunTime time.Duration
	// Estimates holds the per-query detail.
	Estimates map[string][]Estimate // query name -> estimates
}

// Recommend evaluates a workload and returns every access path ranked by
// estimated per-run cost (ties broken by time), cheapest first.
func (a *Advisor) Recommend(queries []*pattern.Query) ([]Recommendation, error) {
	perAccess := map[string]*Recommendation{}
	order := []string{}
	for _, q := range queries {
		ests, err := a.EstimateQuery(q)
		if err != nil {
			return nil, fmt.Errorf("advisor: %s: %w", q.Name, err)
		}
		for _, e := range ests {
			r, ok := perAccess[e.Access]
			if !ok {
				r = &Recommendation{Access: e.Access, Estimates: map[string][]Estimate{}}
				perAccess[e.Access] = r
				order = append(order, e.Access)
			}
			r.PerRunCost += e.Cost
			r.PerRunTime += e.Time
			r.Estimates[q.Name] = append(r.Estimates[q.Name], e)
		}
	}
	out := make([]Recommendation, 0, len(order))
	for _, name := range order {
		out = append(out, *perAccess[name])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].PerRunCost != out[j].PerRunCost {
			return out[i].PerRunCost < out[j].PerRunCost
		}
		return out[i].PerRunTime < out[j].PerRunTime
	})
	return out, nil
}
