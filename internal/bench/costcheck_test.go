package bench

import (
	"math"
	"testing"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/index"
	"repro/internal/pricing"
)

// Cost-model validation: the closed-form formulas of Section 7 must agree
// with what the metering layer actually bills when fed the measured
// metrics of a run — the "actual charged costs" cross-check the paper
// performs in Section 8. Small slack covers bookkeeping the formulas
// idealize away (the final empty queue poll, fractional batching).
func TestCostModelAgreesWithMeteredBilling(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	book := pricing.Singapore2012()
	c, err := NewCorpus(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	// --- indexing: ci$(D,I) vs the billed ledger, per-document and bulk
	// (IndexPutOps is then the packed rows) ---
	var w *core.Warehouse
	for _, bulk := range []bool{true, false} {
		var rep core.IndexReport
		w, rep, _, err = BuildWarehouseCfg(c, core.Config{Strategy: index.LUP, BulkLoad: bulk}, 8, ec2.Large)
		if err != nil {
			t.Fatal(err)
		}
		metered := book.Bill(w.Ledger().Snapshot()).Total()
		formula := costmodel.IndexBuildCost(book, costmodel.DatasetMetrics{
			Docs:          int64(rep.Docs),
			IndexPutOps:   int64(rep.Items),
			IndexingHours: rep.Total.Hours(),
			VMType:        "l",
			VMCount:       8,
		})
		if rel := relDiff(float64(metered), float64(formula)); rel > 0.15 {
			t.Errorf("indexing (bulk %v): metered %v vs formula %v (%.1f%% apart)", bulk, metered, formula, rel*100)
		}
	}

	// --- querying: cq$(q,D,I,DqI) vs the billed delta of one query ---
	in := ec2.Launch(w.Ledger(), ec2.XL)
	before := w.Ledger().Snapshot()
	_, stats, err := w.RunQueryOn(in, `//item[/location="Zanzibar", /payment{val}~"Creditcard"]`, true)
	if err != nil {
		t.Fatal(err)
	}
	delta := w.Ledger().Snapshot().Sub(before)
	meteredQ := book.Bill(delta).Total()
	formulaQ := costmodel.QueryCostIndexed(book, costmodel.QueryMetrics{
		ResultGB:        float64(stats.ResultBytes) / pricing.GB,
		IndexGetOps:     stats.Lookup.GetOps,
		DocsRetrieved:   int64(stats.DocsFetched),
		ProcessingHours: stats.ResponseTime.Hours(),
		VMType:          "xl",
	})
	if rel := relDiff(float64(meteredQ), float64(formulaQ)); rel > 0.15 {
		t.Errorf("query: metered %v vs formula %v (%.1f%% apart)", meteredQ, formulaQ, rel*100)
	}

	// --- storage: st$m vs billed gauges ---
	raw, ovh := w.IndexBytes()
	meteredS := book.StorageMonthly(w.DataBytes(), raw+ovh, "dynamodb").Total()
	formulaS := costmodel.MonthlyStorageCost(book, costmodel.DatasetMetrics{
		DataGB:     float64(w.DataBytes()) / pricing.GB,
		IndexRawGB: float64(raw) / pricing.GB,
		IndexOvhGB: float64(ovh) / pricing.GB,
	}, "dynamodb")
	if rel := relDiff(float64(meteredS), float64(formulaS)); rel > 1e-9 {
		t.Errorf("storage: metered %v vs formula %v", meteredS, formulaS)
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}
