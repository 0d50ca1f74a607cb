package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/meter"
	"repro/internal/pricing"
)

// This file regenerates Table 4, Figure 7, Figure 8 and Table 6.

// IndexingRow is one strategy's indexing run: Table 4's times plus Table
// 6's cost decomposition (measured from the metering ledger during the
// run) and the warehouse left behind for the query experiments.
type IndexingRow struct {
	Strategy   index.Strategy
	Report     core.IndexReport
	Extract    time.Duration
	Upload     time.Duration
	Total      time.Duration
	Cost       pricing.Invoice // decomposed: dynamodb/simpledb, ec2, s3, sqs
	Warehouse  *core.Warehouse
	Fleet      []*ec2.Instance
	IndexRawB  int64
	IndexOvhB  int64
	IndexItems int64
}

// RunIndexing reproduces Table 4's setting: every strategy indexes the
// corpus on fleetSize instances of the given type, the paper's 8 large.
// Costs are billed from the metered usage of the run (Table 6).
func RunIndexing(c *Corpus, backend string, fleetSize int, typ ec2.InstanceType) ([]IndexingRow, error) {
	return RunIndexingCfg(c, core.Config{Backend: backend}, fleetSize, typ)
}

// RunIndexingCfg is RunIndexing with a configuration template: every
// strategy's run copies base (bulk loading, pipeline depth, caches) and
// sets only the strategy, so the same corpus can be indexed with and
// without the cross-document bulk loader for side-by-side tables.
func RunIndexingCfg(c *Corpus, base core.Config, fleetSize int, typ ec2.InstanceType) ([]IndexingRow, error) {
	book := pricing.Singapore2012()
	var rows []IndexingRow
	for _, s := range Strategies() {
		cfg := base
		cfg.Strategy = s
		w, rep, fleet, err := BuildWarehouseCfg(c, cfg, fleetSize, typ)
		if err != nil {
			return nil, fmt.Errorf("bench: indexing under %s: %w", s.Name(), err)
		}
		raw, ovh := w.IndexBytes()
		rows = append(rows, IndexingRow{
			Strategy:   s,
			Report:     rep,
			Extract:    rep.AvgExtract,
			Upload:     rep.AvgUpload,
			Total:      rep.Total,
			Cost:       book.Bill(w.Ledger().Snapshot()),
			Warehouse:  w,
			Fleet:      fleet,
			IndexRawB:  raw,
			IndexOvhB:  ovh,
			IndexItems: w.IndexItems(),
		})
	}
	return rows, nil
}

// Table4 renders the indexing-time table. Measured modeled times are
// extrapolated to the paper's 40 GB for the hh:mm columns.
func Table4(rows []IndexingRow, frac float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: indexing times (8 large instances); extrapolated to 40 GB, measured at scale in parentheses\n")
	fmt.Fprintf(&b, "%-8s | %-28s | %-28s | %-28s\n", "Strategy", "Avg extraction", "Avg uploading", "Total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s | %-28s | %-28s | %-28s\n",
			r.Strategy.Name(), scaledHHMM(r.Extract, frac), scaledHHMM(r.Upload, frac), scaledHHMM(r.Total, frac))
	}
	return b.String()
}

// Table6 renders the indexing cost decomposition, extrapolated to the
// paper's corpus: byte-proportional components (index store writes, EC2
// time) scale with the byte fraction, per-document components (S3 and SQS
// requests) with the document-count fraction.
func Table6(rows []IndexingRow, byteFrac, docsFrac float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: indexing costs (store / EC2 / S3+SQS), extrapolated to 40 GB / 20,000 docs\n")
	fmt.Fprintf(&b, "%-8s | %-12s | %-12s | %-12s | %-12s\n", "Strategy", "IndexStore", "EC2", "S3+SQS", "Total")
	byBytes := pricing.USD(1 / byteFrac)
	byDocs := pricing.USD(1 / docsFrac)
	for _, r := range rows {
		store := (r.Cost.Line("dynamodb") + r.Cost.Line("simpledb")) * byBytes
		ec2c := r.Cost.Line("ec2") * byBytes
		s3sqs := (r.Cost.Line("s3") + r.Cost.Line("sqs")) * byDocs
		fmt.Fprintf(&b, "%-8s | %-12s | %-12s | %-12s | %-12s\n",
			r.Strategy.Name(),
			fmt.Sprintf("$%.2f", float64(store)),
			fmt.Sprintf("$%.2f", float64(ec2c)),
			fmt.Sprintf("$%.2f", float64(s3sqs)),
			fmt.Sprintf("$%.2f", float64(store+ec2c+s3sqs)))
	}
	return b.String()
}

// Table4Bulk renders Table 4's uploading and total columns with the
// cross-document bulk loader next to the per-document loader, plus, per
// run, the billed index-store requests, the index items written and the
// index-store bill extrapolated to 40 GB as Table 6 does. Bulk loading
// packs each key's postings into one item, so the per-row bill that is the
// same for LU, LUP and LUI per document separates them. rows and bulkRows
// come from RunIndexing and RunIndexingCfg(BulkLoad: true) on the same
// corpus; per-strategy order must match (both iterate Strategies()).
func Table4Bulk(rows, bulkRows []IndexingRow, frac float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4 (cont.): per-document vs cross-document bulk loading; extrapolated to 40 GB\n")
	fmt.Fprintf(&b, "%-8s | %-28s | %-28s | %-28s | %-28s | %-22s | %-24s | %-20s\n",
		"Strategy", "Avg upload (per-doc)", "Avg upload (bulk)", "Total (per-doc)", "Total (bulk)", "Store requests",
		"Index items", "IndexStore $")
	byBytes := pricing.USD(1 / frac)
	storeUSD := func(r IndexingRow) float64 {
		return float64((r.Cost.Line("dynamodb") + r.Cost.Line("simpledb")) * byBytes)
	}
	for i, r := range rows {
		if i >= len(bulkRows) {
			break
		}
		br := bulkRows[i]
		ratio := 0.0
		if br.Report.Requests > 0 {
			ratio = float64(r.Report.Requests) / float64(br.Report.Requests)
		}
		fmt.Fprintf(&b, "%-8s | %-28s | %-28s | %-28s | %-28s | %-22s | %-24s | %-20s\n",
			r.Strategy.Name(),
			scaledHHMM(r.Upload, frac), scaledHHMM(br.Upload, frac),
			scaledHHMM(r.Total, frac), scaledHHMM(br.Total, frac),
			fmt.Sprintf("%d -> %d (%.1fx)", r.Report.Requests, br.Report.Requests, ratio),
			fmt.Sprintf("%d -> %d", r.Report.Items, br.Report.Items),
			fmt.Sprintf("$%.2f -> $%.2f", storeUSD(r), storeUSD(br)))
	}
	return b.String()
}

// Fig7Point is one (size, strategy) measurement of Figure 7.
type Fig7Point struct {
	Fraction float64 // of the scale's corpus: 0.25, 0.5, 0.75, 1.0
	Docs     int
	Strategy index.Strategy
	Total    time.Duration
}

// RunFig7 indexes growing prefixes of the corpus (the paper's 10/20/30/40
// GB points) under every strategy.
func RunFig7(c *Corpus, fleetSize int, typ ec2.InstanceType) ([]Fig7Point, error) {
	return RunFig7Cfg(c, core.Config{}, fleetSize, typ)
}

// RunFig7Cfg is RunFig7 with a configuration template (see RunIndexingCfg),
// used to regenerate the figure with bulk loading enabled.
func RunFig7Cfg(c *Corpus, base core.Config, fleetSize int, typ ec2.InstanceType) ([]Fig7Point, error) {
	var points []Fig7Point
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		n := int(float64(len(c.Docs)) * frac)
		sub := &Corpus{Scale: c.Scale, Docs: c.Docs[:n], Parsed: c.Parsed[:n]}
		for _, d := range sub.Docs {
			sub.Bytes += int64(len(d.Data))
		}
		for _, s := range Strategies() {
			cfg := base
			cfg.Strategy = s
			_, rep, _, err := BuildWarehouseCfg(sub, cfg, fleetSize, typ)
			if err != nil {
				return nil, err
			}
			points = append(points, Fig7Point{Fraction: frac, Docs: n, Strategy: s, Total: rep.Total})
		}
	}
	return points, nil
}

// Fig7 renders the indexing-time-vs-size series.
func Fig7(points []Fig7Point) string {
	return Fig7Titled(points, "Figure 7: indexing time (modeled seconds) vs corpus size, 8 large instances")
}

// Fig7Titled renders the Figure 7 series under a custom heading, so the
// bulk-loading rerun prints under its own title.
func Fig7Titled(points []Fig7Point, title string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-10s", "size")
	for _, s := range Strategies() {
		fmt.Fprintf(&b, " | %-10s", s.Name())
	}
	b.WriteString("\n")
	byFrac := map[float64]map[index.Strategy]time.Duration{}
	var fracs []float64
	for _, p := range points {
		if byFrac[p.Fraction] == nil {
			byFrac[p.Fraction] = map[index.Strategy]time.Duration{}
			fracs = append(fracs, p.Fraction)
		}
		byFrac[p.Fraction][p.Strategy] = p.Total
	}
	for _, f := range fracs {
		fmt.Fprintf(&b, "%-10s", fmt.Sprintf("%.0f%%", f*100))
		for _, s := range Strategies() {
			fmt.Fprintf(&b, " | %-10.2f", byFrac[f][s].Seconds())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig8Row is one strategy's index footprint, with and without full-text
// keyword keys.
type Fig8Row struct {
	Strategy index.Strategy
	FullText struct {
		RawBytes, OvhBytes int64
		MonthlyCost        pricing.USD
	}
	NoKeywords struct {
		RawBytes, OvhBytes int64
		MonthlyCost        pricing.USD
	}
}

// RunFig8 loads the corpus into bare DynamoDB stores (no pipeline needed)
// to measure index sizes and monthly storage costs, in the full-text and
// keyword-free variants.
func RunFig8(c *Corpus) ([]Fig8Row, int64, error) {
	book := pricing.Singapore2012()
	var rows []Fig8Row
	for _, s := range Strategies() {
		row := Fig8Row{Strategy: s}
		for _, skipWords := range []bool{false, true} {
			store := dynamodb.New(meter.NewLedger())
			if err := index.CreateTables(store, s); err != nil {
				return nil, 0, err
			}
			opts := index.OptionsFor(store)
			opts.SkipWords = skipWords
			for _, d := range c.Parsed {
				if _, _, err := index.LoadDocument(store, s, d, opts); err != nil {
					return nil, 0, err
				}
			}
			var raw, ovh int64
			for _, t := range s.Tables() {
				raw += store.TableBytes(t)
				ovh += store.OverheadBytes(t)
			}
			cost := book.StorageMonthly(0, raw+ovh, dynamodb.Backend).Total()
			if skipWords {
				row.NoKeywords.RawBytes, row.NoKeywords.OvhBytes, row.NoKeywords.MonthlyCost = raw, ovh, cost
			} else {
				row.FullText.RawBytes, row.FullText.OvhBytes, row.FullText.MonthlyCost = raw, ovh, cost
			}
		}
		rows = append(rows, row)
	}
	return rows, c.Bytes, nil
}

// Fig8 renders the index-size figure.
func Fig8(rows []Fig8Row, xmlBytes int64) string {
	var b strings.Builder
	mb := func(n int64) string { return fmt.Sprintf("%.2f", float64(n)/(1<<20)) }
	fmt.Fprintf(&b, "Figure 8: index size (MB) and monthly storage cost; XML data size = %s MB\n", mb(xmlBytes))
	fmt.Fprintf(&b, "%-8s | %-34s | %-34s\n", "", "full-text", "without keywords")
	fmt.Fprintf(&b, "%-8s | %-10s %-10s %-12s | %-10s %-10s %-12s\n",
		"Strategy", "content", "overhead", "$/month", "content", "overhead", "$/month")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s | %-10s %-10s %-12s | %-10s %-10s %-12s\n",
			r.Strategy.Name(),
			mb(r.FullText.RawBytes), mb(r.FullText.OvhBytes), usd(r.FullText.MonthlyCost),
			mb(r.NoKeywords.RawBytes), mb(r.NoKeywords.OvhBytes), usd(r.NoKeywords.MonthlyCost))
	}
	return b.String()
}
