package repro_test

// One Go benchmark per table and figure of the paper's evaluation
// (Section 8), plus micro-benchmarks of the core machinery and the
// ablations listed in DESIGN.md. Every benchmark reports the modeled
// (simulated-cloud) time of its experiment as "modeled-s" in addition to
// the real wall-clock ns/op; cmd/benchall prints the same experiments as
// paper-style tables.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/ec2"
	"repro/internal/cloud/kv"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/idblock"
	"repro/internal/index"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/serve"
	"repro/internal/twigjoin"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

var (
	benchOnce   sync.Once
	benchCorpus *bench.Corpus
	benchEnv    *bench.QueryEnv
	benchCells  []bench.Fig9Cell
	benchErr    error
)

func benchSetup(b *testing.B) (*bench.Corpus, *bench.QueryEnv, []bench.Fig9Cell) {
	b.Helper()
	benchOnce.Do(func() {
		benchCorpus, benchErr = bench.NewCorpus(bench.Tiny())
		if benchErr != nil {
			return
		}
		benchEnv, benchErr = bench.NewQueryEnv(benchCorpus)
		if benchErr != nil {
			return
		}
		benchCells, benchErr = bench.RunFig9(benchEnv)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCorpus, benchEnv, benchCells
}

// BenchmarkTable4Indexing: indexing the corpus under each strategy on 8
// large instances (Table 4; the cost side is Table 6).
func BenchmarkTable4Indexing(b *testing.B) {
	c, _, _ := benchSetup(b)
	for _, s := range index.All() {
		b.Run(s.Name(), func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				_, rep, _, err := bench.BuildWarehouseCfg(c, core.Config{Strategy: s}, 8, ec2.Large)
				if err != nil {
					b.Fatal(err)
				}
				modeled += rep.Total.Seconds()
			}
			b.ReportMetric(modeled/float64(b.N), "modeled-s")
		})
	}
}

// BenchmarkTable6IndexingCost: the full per-strategy indexing cost run.
func BenchmarkTable6IndexingCost(b *testing.B) {
	c, _, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunIndexing(c, "", 8, ec2.Large)
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		for _, r := range rows {
			total += float64(r.Cost.Total())
		}
		b.ReportMetric(total, "usd")
	}
}

// BenchmarkFig7IndexingScale: indexing time versus corpus size (Figure 7).
func BenchmarkFig7IndexingScale(b *testing.B) {
	c, _, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig7(c, 8, ec2.Large); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8IndexSize: index sizes with and without keywords (Figure 8).
func BenchmarkFig8IndexSize(b *testing.B) {
	c, _, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.RunFig8(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Selectivity: per-query look-up selectivity (Table 5).
func BenchmarkTable5Selectivity(b *testing.B) {
	_, env, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable5(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Response: the workload under every access path on l and xl
// instances (Figure 9a-9c; its cost view is Figures 11-12).
func BenchmarkFig9Response(b *testing.B) {
	_, env, _ := benchSetup(b)
	var modeled float64
	for i := 0; i < b.N; i++ {
		cells, err := bench.RunFig9(env)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			modeled += c.Response.Seconds()
		}
	}
	b.ReportMetric(modeled/float64(b.N), "modeled-s")
}

// BenchmarkFig10Parallelism: workload on 1 vs 8 instances (Figure 10).
func BenchmarkFig10Parallelism(b *testing.B) {
	_, env, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig10(env, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11QueryCost: per-query billing across access paths.
func BenchmarkFig11QueryCost(b *testing.B) {
	_, env, cells := benchSetup(b)
	for i := 0; i < b.N; i++ {
		_ = bench.Fig11(cells)
		_ = bench.Fig12(cells)
	}
	_ = env
}

// BenchmarkFig13Amortization: amortization curves from measured costs.
func BenchmarkFig13Amortization(b *testing.B) {
	_, env, cells := benchSetup(b)
	for i := 0; i < b.N; i++ {
		rows := bench.RunFig13(env.Rows, cells, 20)
		if len(rows) != 4 {
			b.Fatal("missing strategies")
		}
	}
}

// BenchmarkTable7Simpledb: indexing on DynamoDB vs SimpleDB backends
// (Tables 7 and 8 share one comparison run).
func BenchmarkTable7Simpledb(b *testing.B) {
	c, _, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.RunCompare(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8SimpledbQuery is an alias run kept so that every paper
// table has a named benchmark target; the comparison run covers both.
func BenchmarkTable8SimpledbQuery(b *testing.B) {
	BenchmarkTable7Simpledb(b)
}

// --- ablations -----------------------------------------------------------

func BenchmarkAblationIDEncoding(b *testing.B) {
	c, _, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblationIDEncoding(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBatching(b *testing.B) {
	c, _, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblationBatching(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPathCompression(b *testing.B) {
	c, _, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblationPathCompression(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSemijoin(b *testing.B) {
	_, env, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblationSemijoin(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTwigVsBinary: holistic twig join versus a cascade of
// binary structural semijoins over the same identifier streams.
func BenchmarkAblationTwigVsBinary(b *testing.B) {
	cfg := xmark.DefaultConfig(40)
	cfg.TargetDocBytes = 8 << 10
	tr := pattern.MustParse(`//item[/location, /description[/parlist[/listitem[/text]]], //name]`).Patterns[0]
	var streams []twigjoin.Streams
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			b.Fatal(err)
		}
		streams = append(streams, twigjoin.StreamsFromDocument(tr, d))
	}
	b.Run("holistic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range streams {
				twigjoin.Match(tr, s)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range streams {
				twigjoin.MatchBinary(tr, s)
			}
		}
	})
}

// --- micro-benchmarks of the core machinery ------------------------------

func BenchmarkParseDocument(b *testing.B) {
	cfg := xmark.DefaultConfig(20)
	cfg.TargetDocBytes = 32 << 10
	gd := xmark.GenerateDoc(cfg, 0)
	b.SetBytes(int64(len(gd.Data)))
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.Parse(gd.URI, gd.Data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtract(b *testing.B) {
	cfg := xmark.DefaultConfig(20)
	cfg.TargetDocBytes = 32 << 10
	gd := xmark.GenerateDoc(cfg, 0)
	doc, err := xmltree.Parse(gd.URI, gd.Data)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range index.All() {
		b.Run(s.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(gd.Data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				index.Extract(s, doc, index.DefaultOptions())
			}
		})
	}
	// The gateable benchmark's documents (benchmark/corpus.go: 400 x 16 KB,
	// generator seed 42, 2LUPI on the DynamoDB limits); one op is one
	// document.
	gate := func(b *testing.B) []*xmltree.Document {
		docs, bytes := gateCorpus(b)
		parsed := make([]*xmltree.Document, len(docs))
		for i, d := range docs {
			if parsed[i], err = xmltree.Parse(d.URI, d.Data); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(bytes / int64(len(docs)))
		b.ReportAllocs()
		b.ResetTimer()
		return parsed
	}
	opts := index.OptionsFor(dynamodb.New(meter.NewLedger()))
	b.Run("16KB/2LUPI", func(b *testing.B) {
		parsed := gate(b)
		for i := 0; i < b.N; i++ {
			index.Extract(index.TwoLUPI, parsed[i%len(parsed)], opts)
		}
	})
	// The same on every core at once, as live workers and mutable writes
	// extract: each goroutine takes its pass state from the shared pool.
	b.Run("16KB/2LUPI-parallel", func(b *testing.B) {
		parsed := gate(b)
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				index.Extract(index.TwoLUPI, parsed[int(next.Add(1))%len(parsed)], opts)
			}
		})
	})
}

// gateCorpus generates the corpus of the gateable benchmark and returns it
// with its size in bytes.
func gateCorpus(b *testing.B) ([]xmark.Doc, int64) {
	b.Helper()
	cfg := xmark.DefaultConfig(400)
	cfg.Seed = 42
	cfg.TargetDocBytes = 16 << 10
	docs := make([]xmark.Doc, cfg.Docs)
	var bytes int64
	for i := range docs {
		docs[i] = xmark.GenerateDoc(cfg, i)
		bytes += int64(len(docs[i].Data))
	}
	return docs, bytes
}

// gateWarehouse bulk-builds the gateable benchmark's immutable warehouse over
// docs: 2LUPI, indexed on eight large instances.
func gateWarehouse(b *testing.B, docs []xmark.Doc) *core.Warehouse {
	return layoutWarehouse(b, docs, true, len(docs))
}

// layoutWarehouse is gateWarehouse with the index laid out another way:
// bulk-loaded slice documents at a time, one commit each, or (bulk false)
// written one item per key and document.
func layoutWarehouse(b *testing.B, docs []xmark.Doc, bulk bool, slice int) *core.Warehouse {
	b.Helper()
	w, err := core.New(core.Config{Strategy: index.TwoLUPI, Seed: 1, BulkLoad: bulk})
	if err != nil {
		b.Fatal(err)
	}
	fleet := ec2.LaunchFleet(w.Ledger(), ec2.Large, 8)
	for rest := docs; len(rest) > 0; {
		n := min(slice, len(rest))
		for _, d := range rest[:n] {
			if err := w.SubmitDocument(d.URI, d.Data); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := w.IndexCorpusOn(fleet, nil); err != nil {
			b.Fatal(err)
		}
		rest = rest[n:]
	}
	return w
}

// scanQueries are the queries of the gateable benchmark's serve-scan
// workload: q6, q7, q9 and q10, 80-160 candidate documents each.
func scanQueries() []workload.Query {
	all := workload.XMark()
	return []workload.Query{all[5], all[6], all[8], all[9]}
}

// BenchmarkScanQuery/gate is a request of the gateable benchmark's serve-scan
// workload without the HTTP harness: the whole pipeline of RunQueryOn (look-up,
// fetch, parse, evaluate, results) under 2LUPI over the gate corpus. ns/op is
// per query.
func BenchmarkScanQuery(b *testing.B) {
	b.Run("gate", func(b *testing.B) {
		docs, _ := gateCorpus(b)
		w := gateWarehouse(b, docs)
		in := ec2.LaunchFleet(w.Ledger(), ec2.Large, 1)[0]
		queries := scanQueries()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := w.RunQueryOn(in, queries[i%len(queries)].Text, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeQuery/gate is BenchmarkScanQuery/gate served: the same corpus
// and queries through serve.New over a serve.WarehouseBackend with one query
// processor, on a loopback listener. One op is one POST /query, its body read
// whole and decoded into serve.QueryResponse, as the gateable benchmark's
// client does. Unlike RunQueryOn, which decodes the stored result object,
// this path sees what the front end and the handler do with it.
// BenchmarkServeQuery/selective is the same over q1-q5, the queries of the
// serve-selective workload (1-6 candidate documents each), where the index
// look-up and the twig join are most of a request.
func BenchmarkServeQuery(b *testing.B) {
	b.Run("gate", func(b *testing.B) { benchServe(b, scanQueries()) })
	b.Run("selective", func(b *testing.B) { benchServe(b, workload.XMark()[:5]) })
}

func benchServe(b *testing.B, queries []workload.Query) {
	docs, _ := gateCorpus(b)
	w := gateWarehouse(b, docs)
	s, err := serve.New(serve.Config{
		Backend:  serve.NewWarehouseBackend(w, 1, ec2.XL, core.WorkerOptions{}),
		Registry: w.Registry(),
		Limits:   serve.Limits{Workers: 1, QueueDepth: 8},
	})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	var bodies [][]byte
	for _, q := range queries {
		body, _ := json.Marshal(serve.QueryRequest{Query: q.Text, UseIndex: true})
		bodies = append(bodies, body)
	}
	url := "http://" + addr + "/query"
	client := &http.Client{}
	defer client.CloseIdleConnections()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var qr serve.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			b.Fatal(err)
		}
		if qr.RowCount == 0 || qr.RowCount != len(qr.Rows) {
			b.Fatalf("rowCount %d with %d rows", qr.RowCount, len(qr.Rows))
		}
	}
	b.StopTimer()
}

// BenchmarkEvalQuery/gate is the evaluator alone on the same queries: every
// pattern over all 400 documents of the gate corpus, parsed whole, as the
// benchmark's ground truth and every index-less caller run it. ns/op is per
// query.
func BenchmarkEvalQuery(b *testing.B) {
	b.Run("gate", func(b *testing.B) {
		docs, _ := gateCorpus(b)
		parsed := make([]*xmltree.Document, len(docs))
		for i, d := range docs {
			var err error
			if parsed[i], err = xmltree.Parse(d.URI, d.Data); err != nil {
				b.Fatal(err)
			}
		}
		var queries []*pattern.Query
		for _, q := range scanQueries() {
			queries = append(queries, q.Parse())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.EvalQueryOnDocs(queries[i%len(queries)], parsed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBulkBuild is a from-scratch bulk build of the gateable
// benchmark's corpus on eight large instances with BulkLoad on. /whole
// submits every document, then indexes the corpus in one pass, one commit.
// /sliced is the shape the index-build workload times
// (benchmark/warehouse.go, buildSliced): the documents are submitted and
// indexed 40 at a time, on one fleet and into one warehouse, a commit a
// slice. ns/op is per build; docs/s is the rate. Of the last build it
// reports the index items and the index-store requests (reads and puts)
// per document, and retained-MB: the live heap (HeapAlloc after a forced
// collection) once its last commit has closed, the warehouse and its
// store included.
func BenchmarkBulkBuild(b *testing.B) {
	docs, bytes := gateCorpus(b)
	for _, tc := range []struct {
		name  string
		slice int
	}{{"whole", len(docs)}, {"sliced", 40}} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(bytes)
			b.ReportAllocs()
			var w *core.Warehouse
			for i := 0; i < b.N; i++ {
				w = nil
				var err error
				if w, err = core.New(core.Config{Strategy: index.TwoLUPI, Seed: 1, BulkLoad: true}); err != nil {
					b.Fatal(err)
				}
				fleet := ec2.LaunchFleet(w.Ledger(), ec2.Large, 8)
				for rest := docs; len(rest) > 0; {
					n := min(tc.slice, len(rest))
					for _, d := range rest[:n] {
						if err := w.SubmitDocument(d.URI, d.Data); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := w.IndexCorpusOn(fleet, nil); err != nil {
						b.Fatal(err)
					}
					rest = rest[n:]
				}
			}
			b.StopTimer()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			usage := w.Ledger().Snapshot()
			requests := usage.Get("dynamodb", "get").Calls + usage.Get("dynamodb", "put").Calls
			b.ReportMetric(float64(len(docs)*b.N)/b.Elapsed().Seconds(), "docs/s")
			b.ReportMetric(float64(w.IndexItems())/float64(len(docs)), "items/doc")
			b.ReportMetric(float64(requests)/float64(len(docs)), "requests/doc")
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "retained-MB")
			runtime.KeepAlive(w)
		})
	}
}

// BenchmarkCompactPass/gate is one compaction pass of the gateable
// benchmark's serve-mixed-rw write shape without the HTTP harness: the gate
// corpus in a mutable 2LUPI warehouse, drained, then per pass 12
// revision-stamped updates and 4 removals round-robin over the corpus,
// folded by one CompactNow. Only the pass is timed, so ns/op and allocs are
// per pass. The removals shift by one document a lap, so each removes a
// document the lap before brought back. It reports the billed store requests
// and the deleted items of a pass, and retained-MB: the live heap
// (HeapAlloc after a forced collection) once the passes are done and the
// warehouse is drained again — what the mutable warehouse keeps between
// passes, its store's arena included.
func BenchmarkCompactPass(b *testing.B) {
	docs, _ := gateCorpus(b)
	w, err := core.New(core.Config{Strategy: index.TwoLUPI, Seed: 1, MutableCorpus: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range docs {
		if err := w.SubmitDocument(d.URI, d.Data); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := w.IndexCorpusOn(ec2.LaunchFleet(w.Ledger(), ec2.Large, 8), nil); err != nil {
		b.Fatal(err)
	}
	in := ec2.Launch(w.Ledger(), ec2.XL)
	for w.Corpus().BufferedEntries() > 0 {
		if _, err := w.CompactNow(in); err != nil {
			b.Fatal(err)
		}
	}
	const writes, removeEvery = 16, 4
	next := 0 // the write sequence continues across the runs of b.N
	b.Run("gate", func(b *testing.B) {
		b.ReportAllocs()
		var requests, deletes int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := 0; j < writes; j++ {
				k := next
				next++
				d := docs[k%len(docs)]
				if lap := k / len(docs); (k+lap)%removeEvery == removeEvery-1 {
					err = w.RemoveDocument(in, d.URI)
				} else {
					note := fmt.Sprintf("<note>rev%d</note>", k)
					root := bytes.IndexByte(d.Data, '>') + 1
					err = w.UpdateDocument(in, d.URI, slices.Concat(d.Data[:root], []byte(note), d.Data[root:]))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			st, err := w.CompactNow(in)
			if err != nil {
				b.Fatal(err)
			}
			requests += st.Requests
			deletes += st.Deletes
		}
		b.StopTimer()
		for w.Corpus().BufferedEntries() > 0 {
			if _, err := w.CompactNow(in); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(requests)/float64(b.N), "requests/pass")
		b.ReportMetric(float64(deletes)/float64(b.N), "deletes/pass")
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/pass")
		b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "retained-MB")
		runtime.KeepAlive(w)
	})
}

// BenchmarkLookupQuery/gate is the index look-up of the gateable benchmark's
// serve-selective workload without the HTTP harness: q1-q5 under 2LUPI over
// the gate corpus, no cache. ns/op is per query.
//
// BenchmarkLookupQuery/paper-shape is the look-up of q1-q10 over the paper's
// document shape: 12 XMark documents of 2 MB each, 2LUPI. There most
// identifier sets are large enough for the blocked format, so block
// skipping carries real traffic. It reports the blocks the joins read and
// skipped per query, the share of identifier bytes stored as blocked blobs,
// and index bytes per corpus byte.
func BenchmarkLookupQuery(b *testing.B) {
	var gate *core.Warehouse
	gateOnce := func(b *testing.B) *core.Warehouse {
		if gate == nil {
			docs, _ := gateCorpus(b)
			gate = gateWarehouse(b, docs)
		}
		return gate
	}
	b.Run("gate", func(b *testing.B) {
		benchLookup(b, gateOnce(b), workload.XMark()[:5])
	})
	// The same look-ups over the two other layouts a key's records take:
	// the packs of 40-document commits, as the index-build workload builds
	// (benchmark/warehouse.go, buildSliced), and one item per key and
	// document, as a mutable corpus folds. Neither key reads as one sorted
	// pack, so each look-up orders every key's records by URI.
	b.Run("sliced", func(b *testing.B) {
		docs, _ := gateCorpus(b)
		benchLookup(b, layoutWarehouse(b, docs, true, 40), workload.XMark()[:5])
	})
	b.Run("per-document", func(b *testing.B) {
		docs, _ := gateCorpus(b)
		benchLookup(b, layoutWarehouse(b, docs, false, len(docs)), workload.XMark()[:5])
	})
	b.Run("paper-shape", func(b *testing.B) {
		cfg := xmark.DefaultConfig(12)
		cfg.TargetDocBytes = 2 << 20
		docs := xmark.Generate(cfg)
		var corpusBytes, idBytes, blockedBytes int64
		opts := index.OptionsFor(dynamodb.New(meter.NewLedger()))
		idTable := index.TwoLUPI.Tables()[1]
		for _, d := range docs {
			corpusBytes += int64(len(d.Data))
			doc, err := xmltree.Parse(d.URI, d.Data)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range index.Extract(index.TwoLUPI, doc, opts).Tables[idTable] {
				for _, v := range e.Values {
					idBytes += int64(len(v))
					if _, err := idblock.Parse(v); err == nil {
						blockedBytes += int64(len(v))
					}
				}
			}
		}
		w := gateWarehouse(b, docs)
		benchLookup(b, w, workload.XMark())
		raw, overhead := w.IndexBytes()
		b.ReportMetric(float64(blockedBytes)/float64(idBytes), "blocked-id-bytes-share")
		b.ReportMetric(float64(raw+overhead)/float64(corpusBytes), "index-bytes/corpus-byte")
	})
}

// benchLookup runs the queries' 2LUPI look-ups round robin without a
// cache, and reports the joins' blocks read and skipped and the postings
// built per query.
func benchLookup(b *testing.B, w *core.Warehouse, queries []workload.Query) {
	var parsed []*pattern.Query
	for _, q := range queries {
		parsed = append(parsed, q.Parse())
	}
	reg := obs.NewRegistry()
	joins := &index.JoinCounters{
		BlocksRead:    reg.Counter("blocks_read"),
		BlocksSkipped: reg.Counter("blocks_skipped"),
		PostingsBuilt: reg.Counter("postings_built"),
	}
	opts := index.LookupOptions{Joins: joins}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := index.LookupQuery(w.Store(), index.TwoLUPI, parsed[i%len(parsed)], opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(joins.BlocksRead.Value())/float64(b.N), "blocks-read/op")
	b.ReportMetric(float64(joins.BlocksSkipped.Value())/float64(b.N), "blocks-skipped/op")
	b.ReportMetric(float64(joins.PostingsBuilt.Value())/float64(b.N), "postings-built/op")
}

func BenchmarkLookup(b *testing.B) {
	c, env, _ := benchSetup(b)
	q := workload.XMark()[3].Parse() // the two-branch split-feature query
	for _, s := range index.All() {
		b.Run(s.Name(), func(b *testing.B) {
			w := env.Warehouse(bench.AccessPath(s.Name()))
			for i := 0; i < b.N; i++ {
				if _, _, err := index.LookupQuery(w.Store(), s, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	_ = c
}

// BenchmarkLookupPattern compares the index look-up without and with the
// posting cache on the same corpus. The URIs are the same in both (see
// internal/index/parallel_test.go); a cached repeat bills no index get.
func BenchmarkLookupPattern(b *testing.B) {
	_, env, _ := benchSetup(b)
	q := workload.XMark()[3].Parse().Patterns[0]
	for _, s := range index.All() {
		w := env.Warehouse(bench.AccessPath(s.Name()))
		variants := []struct {
			name string
			opts index.LookupOptions
		}{
			{"uncached", index.LookupOptions{}},
			{"cached", index.LookupOptions{Cache: index.NewPostingCache(index.DefaultCacheBytes)}},
		}
		for _, v := range variants {
			b.Run(s.Name()+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := index.LookupPattern(w.Store(), s, q, v.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkProcessQuery runs the full query pipeline (steps 8-18) with one
// document worker, with eight (QueryWorkers), and with eight plus the
// posting cache. The modeled response time is the same at one and eight
// workers; the metric of interest is the real ns/op.
func BenchmarkProcessQuery(b *testing.B) {
	c, _, _ := benchSetup(b)
	query := workload.XMark()[3].Text
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"workers1", core.Config{Strategy: index.TwoLUPI, QueryWorkers: 1}},
		{"workers8", core.Config{Strategy: index.TwoLUPI, QueryWorkers: 8}},
		{"workers8-cached", core.Config{Strategy: index.TwoLUPI, QueryWorkers: 8, PostingCacheBytes: index.DefaultCacheBytes}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			w, err := core.New(v.cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range c.Docs {
				if err := w.SubmitDocument(d.URI, d.Data); err != nil {
					b.Fatal(err)
				}
			}
			fleet := ec2.LaunchFleet(w.Ledger(), ec2.Large, 1)
			if _, err := w.IndexCorpusOn(fleet, nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var modeled float64
			for i := 0; i < b.N; i++ {
				_, stats, err := w.RunQueryOn(fleet[0], query, true)
				if err != nil {
					b.Fatal(err)
				}
				modeled += stats.ResponseTime.Seconds()
			}
			b.ReportMetric(modeled/float64(b.N), "modeled-s")
		})
	}
}

func BenchmarkEvalPattern(b *testing.B) {
	cfg := xmark.DefaultConfig(20)
	cfg.TargetDocBytes = 32 << 10
	gd := xmark.GenerateDoc(cfg, 0)
	doc, err := xmltree.Parse(gd.URI, gd.Data)
	if err != nil {
		b.Fatal(err)
	}
	tr := pattern.MustParse(`//item[/location{val}, //name{val}]`).Patterns[0]
	b.SetBytes(int64(len(gd.Data)))
	for i := 0; i < b.N; i++ {
		engine.EvalPatternOnDoc(tr, doc)
	}
}

func BenchmarkIDCodec(b *testing.B) {
	var ids []xmltree.NodeID
	for i := int32(1); i <= 4096; i++ {
		ids = append(ids, xmltree.NodeID{Pre: i * 3, Post: i, Depth: 5})
	}
	b.Run("encode-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			index.EncodeIDsBinary(ids, 48<<10)
		}
	})
	blobs := index.EncodeIDsBinary(ids, 48<<10)
	b.Run("decode-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, blob := range blobs {
				if _, err := index.DecodeIDsBinary(blob); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// memStoreGroup returns a table "t" holding one hash key "key" of n items
// shaped like the index's: one URI attribute with one 80-byte value under a
// 16-byte content-hash range key.
func memStoreGroup(b *testing.B, n int) (*kv.MemStore, []kv.Item) {
	b.Helper()
	store := dynamodb.New(meter.NewLedger())
	if err := store.CreateTable("t"); err != nil {
		b.Fatal(err)
	}
	items := make([]kv.Item, n)
	for i := range items {
		items[i] = kv.Item{
			HashKey:  "key",
			RangeKey: fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15),
			Attrs:    []kv.Attr{{Name: fmt.Sprintf("doc-%03d.xml", i), Values: []kv.Value{make(kv.Value, 80)}}},
		}
		if _, err := store.Put("t", items[i]); err != nil {
			b.Fatal(err)
		}
	}
	return store, items
}

// BenchmarkMemStoreGet reads one hash key of 1, 40 and 400 items.
func BenchmarkMemStoreGet(b *testing.B) {
	for _, n := range []int{1, 40, 400} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			store, items := memStoreGroup(b, n)
			b.SetBytes(int64(n) * items[0].Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got, _, err := kv.Get(context.Background(), store, "t", "key"); err != nil || len(got) != n {
					b.Fatal(len(got), err)
				}
			}
		})
	}
}

// BenchmarkMemStoreRead reads the same keys as BenchmarkMemStoreGet with
// the store's own read, walking every record, attribute and value without
// building items.
func BenchmarkMemStoreRead(b *testing.B) {
	for _, n := range []int{1, 40, 400} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			store, items := memStoreGroup(b, n)
			b.SetBytes(int64(n) * items[0].Size())
			keys := []string{"key"}
			var values int
			walk := func(_ string, recs *kv.Records) {
				for recs.Next() {
					for recs.NextAttr() {
						for _, ok := recs.NextValue(); ok; _, ok = recs.NextValue() {
							values++
						}
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Read(context.Background(), "t", keys, walk); err != nil {
					b.Fatal(err)
				}
			}
			if values != b.N*n {
				b.Fatalf("walked %d values, want %d", values, b.N*n)
			}
		})
	}
}

// BenchmarkMemStorePut overwrites the items of one hash key of 1, 40 and 400
// items in turn (range keys are content hashes, so puts land at random
// positions of the group), which also pays for the arena rewrites.
func BenchmarkMemStorePut(b *testing.B) {
	for _, n := range []int{1, 40, 400} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			store, items := memStoreGroup(b, n)
			b.SetBytes(items[0].Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Put("t", items[i%n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDynamoDBPut(b *testing.B) {
	store := dynamodb.New(meter.NewLedger())
	if err := store.CreateTable("t"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := kv.Item{
			HashKey:  "key",
			RangeKey: fmt.Sprintf("r-%09d", i),
			Attrs:    []kv.Attr{{Name: "doc.xml", Values: []kv.Value{{byte(i), byte(i >> 8)}}}},
		}
		if _, err := store.Put("t", it); err != nil {
			b.Fatal(err)
		}
	}
}
