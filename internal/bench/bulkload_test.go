package bench

import (
	"reflect"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/ec2"
	"repro/internal/cloud/kv"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/meter"
)

// This file holds the acceptance test and the micro-benchmarks of the
// cross-document bulk loader (Table 4 / Figure 7 with BulkLoad enabled).

// newUnbatchedStore returns a DynamoDB-shaped store whose batch limit is a
// single item, so every index item is billed as its own put request — the
// unbatched baseline of RunAblationBatching.
func newUnbatchedStore(ledger *meter.Ledger) *kv.MemStore {
	return kv.NewMemStore(kv.Config{
		Backend: dynamodb.Backend,
		Limits: kv.Limits{
			MaxItemBytes:   dynamodb.MaxItemBytes,
			MaxValueBytes:  dynamodb.MaxItemBytes,
			BatchPutItems:  1,
			BatchGetKeys:   100,
			SupportsBinary: true,
		},
		Perf:            dynamodb.DefaultPerf(),
		PerItemOverhead: 100,
		Ledger:          ledger,
	})
}

func dumpTables(t *testing.T, store kv.Store, s index.Strategy) map[string][]kv.Item {
	t.Helper()
	dumper, ok := store.(interface{ DumpTable(string) []kv.Item })
	if !ok {
		t.Fatalf("store %T cannot dump tables", store)
	}
	out := map[string][]kv.Item{}
	for _, tbl := range s.Tables() {
		out[tbl] = dumper.DumpTable(tbl)
	}
	return out
}

// checkLayout holds every table of got to the bulk layout and to want's
// postings (index.CheckLayout).
func checkLayout(t *testing.T, label string, lim kv.Limits, got, want map[string][]kv.Item, s index.Strategy) {
	t.Helper()
	for _, tbl := range s.Tables() {
		if err := index.CheckLayout(lim, tbl, got[tbl], want[tbl]); err != nil {
			t.Errorf("%s: table %s: %v", label, tbl, err)
		}
	}
}

// TestBulkLoadRequestReduction is the acceptance criterion of the bulk
// loader: on the shape tests' corpus (240 documents), for every strategy,
// bulk loading bills at least 2x fewer index-store requests than the
// unbatched (one put per item) path and strictly fewer than the
// per-document batch loader — in fact exactly the packing floor
// sum_tables ceil(packs/BatchPutItems) puts plus ceil(keys/BatchGetKeys)
// reads — writes strictly fewer items, and leaves the postings of both in
// the bulk layout (index.CheckLayout; the unbatched path writes the very
// items of the per-document one), with the corpus totals unchanged. The
// report's Requests and Items are the ledger's index-store calls and rows.
// The per-document warehouses are the shape tests' (sharedEnv), indexed as
// Table 4 indexes them; the default scale's request counts are held byte
// for byte by the default golden's "Table 4 (cont.)" (cmd/benchall, make
// papergate).
func TestBulkLoadRequestReduction(t *testing.T) {
	e, _ := sharedEnv(t)
	c := e.Corpus
	for _, row := range e.Rows {
		s := row.Strategy
		t.Run(s.Name(), func(t *testing.T) {
			perDocW, perDocRep := row.Warehouse, row.Report
			bulkW, bulkRep, _, err := BuildWarehouseCfg(c, core.Config{Strategy: s, BulkLoad: true}, 8, ec2.Large)
			if err != nil {
				t.Fatal(err)
			}

			// Unbatched baseline: same corpus, one put per item.
			ledger := meter.NewLedger()
			unbatched := newUnbatchedStore(ledger)
			if err := index.CreateTables(unbatched, s); err != nil {
				t.Fatal(err)
			}
			opts := index.OptionsFor(unbatched)
			for _, d := range c.Parsed {
				if _, _, err := index.LoadDocument(unbatched, s, d, opts); err != nil {
					t.Fatal(err)
				}
			}
			unbatchedReqs := int(ledger.Snapshot().Get(dynamodb.Backend, "put").Calls)

			if bulkRep.Docs != perDocRep.Docs || bulkRep.DataBytes != perDocRep.DataBytes ||
				bulkRep.Entries != perDocRep.Entries {
				t.Errorf("bulk corpus totals %+v differ from per-doc %+v", bulkRep, perDocRep)
			}
			if 2*bulkRep.Requests > unbatchedReqs {
				t.Errorf("bulk billed %d requests, not >=2x below unbatched %d",
					bulkRep.Requests, unbatchedReqs)
			}
			if bulkRep.Requests >= perDocRep.Requests {
				t.Errorf("bulk billed %d requests, per-document %d", bulkRep.Requests, perDocRep.Requests)
			}
			if bulkRep.Items >= perDocRep.Items {
				t.Errorf("bulk wrote %d items, per-document %d", bulkRep.Items, perDocRep.Items)
			}
			usage := bulkW.Ledger().Snapshot()
			put, get := usage.Get(dynamodb.Backend, "put"), usage.Get(dynamodb.Backend, "get")
			if int64(bulkRep.Requests) != put.Calls+get.Calls || int64(bulkRep.Items) != put.Units {
				t.Errorf("bulk reports %d requests and %d items; the ledger billed %d puts and %d gets, %d rows",
					bulkRep.Requests, bulkRep.Items, put.Calls, get.Calls, put.Units)
			}

			bulkDump := dumpTables(t, bulkW.BaseStore(), s)
			lim := bulkW.BaseStore().Limits()
			floor, items := 0, 0
			for _, tbl := range s.Tables() {
				keys := map[string]bool{}
				for _, it := range bulkDump[tbl] {
					keys[it.HashKey] = true
				}
				items += len(bulkDump[tbl])
				floor += (len(bulkDump[tbl])+lim.BatchPutItems-1)/lim.BatchPutItems + (len(keys)+lim.BatchGetKeys-1)/lim.BatchGetKeys
			}
			if bulkRep.Requests != floor || bulkRep.Items != items {
				t.Errorf("bulk billed %d requests for %d items; the packing floor is %d requests for %d items",
					bulkRep.Requests, bulkRep.Items, floor, items)
			}

			perDocDump := dumpTables(t, perDocW.BaseStore(), s)
			if !reflect.DeepEqual(dumpTables(t, unbatched, s), perDocDump) {
				t.Error("the unbatched path wrote other items than the per-document loader")
			}
			checkLayout(t, "bulk vs per-doc", lim, bulkDump, perDocDump, s)
		})
	}
}

// benchExtractions precomputes every document's extraction so the
// benchmarks measure only the write path.
func benchExtractions(b *testing.B, c *Corpus, s index.Strategy, store kv.Store) []*index.Extraction {
	b.Helper()
	opts := index.OptionsFor(store)
	exs := make([]*index.Extraction, len(c.Parsed))
	for i, d := range c.Parsed {
		exs[i] = index.Extract(s, d, opts)
	}
	return exs
}

// BenchmarkWriteExtraction is the per-document write path: one batch
// sequence per document. Reports modeled upload seconds and billed store
// requests per document.
func BenchmarkWriteExtraction(b *testing.B) {
	c, err := NewCorpus(Tiny())
	if err != nil {
		b.Fatal(err)
	}
	s := index.LUP
	var upload float64
	var requests int
	for i := 0; i < b.N; i++ {
		ledger := meter.NewLedger()
		store := dynamodb.New(ledger)
		if err := index.CreateTables(store, s); err != nil {
			b.Fatal(err)
		}
		exs := benchExtractions(b, c, s, store)
		b.ResetTimer()
		upload, requests = 0, 0
		for _, ex := range exs {
			d, stats, err := index.WriteExtraction(store, ex)
			if err != nil {
				b.Fatal(err)
			}
			upload += d.Seconds()
			requests += stats.Requests
		}
		b.StopTimer()
	}
	b.ReportMetric(upload, "modeled-s")
	b.ReportMetric(float64(requests)/float64(len(c.Docs)), "requests/doc")
}

// BenchmarkBulkLoad is the same corpus through the cross-document bulk
// loader: one commit packs each key's postings into one item, so
// requests/doc drops to the packing floor.
func BenchmarkBulkLoad(b *testing.B) {
	c, err := NewCorpus(Tiny())
	if err != nil {
		b.Fatal(err)
	}
	s := index.LUP
	var upload float64
	var requests int
	for i := 0; i < b.N; i++ {
		ledger := meter.NewLedger()
		store := dynamodb.New(ledger)
		if err := index.CreateTables(store, s); err != nil {
			b.Fatal(err)
		}
		exs := benchExtractions(b, c, s, store)
		b.ResetTimer()
		loader := index.NewBulkLoader(store, index.BulkOptions{})
		for _, ex := range exs {
			if _, err := loader.Add(ex); err != nil {
				b.Fatal(err)
			}
		}
		done, err := loader.Close()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		upload, requests = 0, 0
		for _, d := range done {
			upload += d.Upload.Seconds()
			requests += d.Stats.Requests
		}
	}
	b.ReportMetric(upload, "modeled-s")
	b.ReportMetric(float64(requests)/float64(len(c.Docs)), "requests/doc")
}
