// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 8) on the simulated cloud.
//
// The paper's corpus is 20,000 XMark documents totalling 40 GB. A Scale
// shrinks that corpus while preserving its composition; all modeled times
// and metered costs scale accordingly, so the *shapes* the paper reports —
// which strategy wins, by what factor, where curves cross — are reproduced
// at any scale. cmd/benchall runs every experiment and prints paper-style
// tables; bench_test.go exposes each one as a Go benchmark.
//
// Experiments:
//
//	Table 4  indexing times per strategy on 8 large instances
//	Figure 7 indexing time vs corpus size
//	Figure 8 index sizes and monthly storage cost, with/without keywords
//	Table 5  per-query look-up selectivity per strategy
//	Figure 9 per-query response times and their decomposition (l and xl)
//	Figure 10 workload x16 on 1 vs 8 instances
//	Table 6  indexing monetary cost decomposition
//	Figure 11 per-query monetary cost (l and xl)
//	Figure 12 workload cost decomposition per strategy
//	Figure 13 index cost amortization
//	Table 7  indexing: DynamoDB (this work) vs SimpleDB ([8])
//	Table 8  querying: DynamoDB vs SimpleDB
//	plus ablations of the design choices listed in DESIGN.md.
package bench

import (
	"fmt"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/pricing"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// Scale describes a corpus size as a fraction of the paper's 40 GB.
type Scale struct {
	Name     string
	Docs     int
	DocBytes int
}

// Tiny is for unit tests and quick smoke runs.
func Tiny() Scale { return Scale{Name: "tiny", Docs: 80, DocBytes: 4 << 10} }

// Small is the default for Go benchmarks.
func Small() Scale { return Scale{Name: "small", Docs: 200, DocBytes: 8 << 10} }

// Default is what cmd/benchall runs: 400 documents of 16 KB.
func Default() Scale { return Scale{Name: "default", Docs: 400, DocBytes: 16 << 10} }

// PaperFraction is the fraction of the paper's 40 GB corpus this scale
// represents, by bytes. Byte-proportional quantities (index rows, compute
// time, transfer) extrapolate with it.
func (s Scale) PaperFraction() float64 {
	return float64(int64(s.Docs)*int64(s.DocBytes)) / float64(40<<30)
}

// DocsFraction is the fraction of the paper's 20,000 documents, by count.
// Per-document quantities (S3 puts/gets, queue requests) extrapolate with
// it rather than with the byte fraction, since the scaled corpus uses
// smaller documents.
func (s Scale) DocsFraction() float64 {
	return float64(s.Docs) / 20000
}

// Config returns the generator configuration of the scale.
func (s Scale) Config() xmark.Config {
	cfg := xmark.DefaultConfig(s.Docs)
	cfg.TargetDocBytes = s.DocBytes
	return cfg
}

// Corpus generates and parses the corpus once.
type Corpus struct {
	Scale  Scale
	Docs   []xmark.Doc
	Parsed []*xmltree.Document
	Bytes  int64
}

// NewCorpus materializes a corpus.
func NewCorpus(s Scale) (*Corpus, error) {
	cfg := s.Config()
	c := &Corpus{Scale: s}
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			return nil, fmt.Errorf("bench: corpus doc %d: %w", i, err)
		}
		c.Docs = append(c.Docs, gd)
		c.Parsed = append(c.Parsed, d)
		c.Bytes += int64(len(gd.Data))
	}
	return c, nil
}

// MB returns the corpus size in megabytes.
func (c *Corpus) MB() float64 { return float64(c.Bytes) / (1 << 20) }

// Strategies under study, in the paper's order.
func Strategies() []index.Strategy { return index.All() }

// BuildWarehouseCfg provisions a warehouse configured by cfg, uploads the
// corpus (front-end steps 1-3) and indexes it on a fleet. It returns the
// warehouse, the indexing report and the fleet used.
func BuildWarehouseCfg(c *Corpus, cfg core.Config, fleetSize int, typ ec2.InstanceType) (*core.Warehouse, core.IndexReport, []*ec2.Instance, error) {
	w, err := core.New(cfg)
	if err != nil {
		return nil, core.IndexReport{}, nil, err
	}
	for _, d := range c.Docs {
		if err := w.SubmitDocument(d.URI, d.Data); err != nil {
			return nil, core.IndexReport{}, nil, err
		}
	}
	// SubmitDocument queued loader messages; IndexCorpusOn drains them.
	fleet := ec2.LaunchFleet(w.Ledger(), typ, fleetSize)
	rep, err := w.IndexCorpusOn(fleet, nil)
	if err != nil {
		return nil, rep, nil, err
	}
	return w, rep, fleet, nil
}

// scaledHHMM renders a duration extrapolated to the paper's full corpus,
// in the hh:mm style of Table 4, next to the measured value.
func scaledHHMM(d time.Duration, fraction float64) string {
	if fraction <= 0 {
		return "-"
	}
	full := time.Duration(float64(d) / fraction)
	return fmt.Sprintf("%s (measured %.1fs)", formatHHMM(full), d.Seconds())
}

func formatHHMM(d time.Duration) string {
	total := int(d.Round(time.Minute) / time.Minute)
	return fmt.Sprintf("%d:%02d", total/60, total%60)
}

// usd formats a dollar amount.
func usd(v pricing.USD) string { return fmt.Sprintf("$%.5f", float64(v)) }
