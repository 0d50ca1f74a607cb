package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/cloud/kv"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/idblock"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/serve"
	"repro/internal/twigjoin"
	"repro/internal/xmltree"
)

// This file is the traced replay. After a workload's untraced run, the first
// tenth of the same sequence is replayed by one client in the sequential
// configuration, and the harness records a span around every call into a
// layer. The same request text is timed at three depths — HTTP, the front
// end, the query processor — and then taken apart step by step through the
// layers' public calls; a layer's self time is its span minus its children,
// so the self times add up to the HTTP envelope. The collector is off while
// spans are open and runs between requests (pausedGC), so no layer pays for
// another layer's garbage; what collection costs is in the runtime.gc_*
// metrics of the untraced run.
// tracedShare is the prefix of the sequence the traced run replays.
const tracedShare = 0.10

// Span names. The step spans carry the name of the per-layer metric they feed.
const (
	spanHTTP      = "serve.http"
	spanHTTPWrite = "serve.http_write"
	spanFrontend  = "core.frontend"
	spanProcess   = "core.process"
	spanParse     = "pattern.parse"
	spanLookup    = "index.lookup"
	spanFetch     = "s3.fetch"
	spanXML       = "xmltree.parse"
	spanEval      = "engine.eval"
	spanUpdate    = "core.update"
	spanRemove    = "core.remove"
	spanCompact   = "mutate.compact"
	spanIndex     = "core.index"
	spanExtract   = "index.extract"
	spanWrite     = "index.write"
)

// gcSlack is how much garbage a replay lets pile up before it collects.
const gcSlack = 128 << 20

// pausedGC switches the collector off and returns two functions: collect,
// to call between requests, runs a collection once gcSlack bytes have been
// allocated since the last one; restore switches the collector back on.
func pausedGC() (collect, restore func()) {
	old := debug.SetGCPercent(-1)
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	live := m.HeapAlloc
	collect = func() {
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > live+gcSlack {
			runtime.GC()
			runtime.ReadMemStats(&m)
			live = m.HeapAlloc
		}
	}
	return collect, func() { debug.SetGCPercent(old) }
}

// tracedBackend is the daemon's backend during the replay: the warehouse
// backend with a span around the front end's Do.
type tracedBackend struct {
	*serve.WarehouseBackend
	rec *recorder
	// The replay has one request in flight at a time; these identify it.
	parent, request atomic.Int64
	last            atomic.Int64 // the frontend span of the latest Do
}

func (b *tracedBackend) Do(queryText string, useIndex bool, timeout time.Duration) (*core.QueryOutcome, error) {
	id := b.rec.start(spanFrontend, int(b.parent.Load()), int(b.request.Load()), false)
	defer b.rec.end(id)
	b.last.Store(int64(id))
	return b.WarehouseBackend.Do(queryText, useIndex, timeout)
}

// queryFacts accumulates what the replayed queries' statistics say.
type queryFacts struct {
	queries, docsFetched, idsFromIndex, usefulDocs, rows int
	parsedBytes                                          int64
	join                                                 time.Duration
}

// traceServe replays the prefix of a serve workload and fills the per-layer
// metrics.
func traceServe(o options, res *result, run *serveRun) error {
	rec := newRecorder()
	prefix := run.reqs[:int(float64(len(run.reqs))*tracedShare)]
	cfg := warehouseConfig(o.workload, o.seed, true)
	served, err := buildWarehouse(cfg, run.docs, 1)
	if err != nil {
		return err
	}
	// The twin takes the direct calls. It compacts only when told to, so a
	// pass can be timed on its own.
	twinCfg := cfg
	twinCfg.CompactEveryDocs = 0
	twin, err := buildWarehouse(twinCfg, run.docs, 1)
	if err != nil {
		return err
	}
	tb := &tracedBackend{WarehouseBackend: warehouseBackend(served.w), rec: rec}
	d, err := startDaemon(served.w, tb)
	if err != nil {
		return err
	}

	// Step look-ups go through a cache of their own, of the warehouse's size
	// and fed the same sequence, so they hit and miss as the warehouse does.
	var shadow *index.PostingCache
	if cfg.PostingCacheBytes > 0 {
		shadow = index.NewPostingCache(cfg.PostingCacheBytes)
	}
	in := ec2.Launch(twin.w.Ledger(), ec2.XL)
	var facts queryFacts
	mutations, deltaPeak := 0, 0
	replayOne := func(i int, r request) error {
		tb.request.Store(int64(i))
		if r.Kind == kindQuery {
			h := rec.start(spanHTTP, 0, i, false)
			tb.parent.Store(int64(h))
			_, err := d.do(r)
			rec.end(h)
			if err != nil {
				return err
			}
			return replayQuery(rec, twin.w, in, shadow, r, int(tb.last.Load()), i, &facts)
		}
		h := rec.start(spanHTTPWrite, 0, i, false)
		_, err := d.do(r)
		rec.end(h)
		if err != nil {
			return err
		}
		if r.Kind == kindPut {
			s := rec.start(spanUpdate, h, i, true)
			err = twin.w.UpdateDocument(in, r.URI, r.Body)
			rec.end(s)
		} else {
			s := rec.start(spanRemove, h, i, true)
			err = twin.w.RemoveDocument(in, r.URI)
			rec.end(s)
		}
		if err != nil {
			return err
		}
		if n := twin.w.Corpus().BufferedEntries(); n > deltaPeak {
			deltaPeak = n
		}
		if mutations++; mutations%compactEveryDocs == 0 {
			s := rec.start(spanCompact, 0, i, false)
			_, err = twin.w.CompactNow(in)
			rec.end(s)
		}
		return err
	}
	collect, restore := pausedGC()
	for i, r := range prefix {
		collect()
		if err = replayOne(i, r); err != nil {
			err = fmt.Errorf("traced request %d: %w", i, err)
			break
		}
	}
	restore()
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	if o.outDir != "" {
		if err := rec.write(o.outDir, "trace-"+o.workload+".json"); err != nil {
			return err
		}
	}

	spans := rec.all()
	self := selfTimes(spans)
	selfOf := meanByName(spans, func(s span) time.Duration { return self[s.ID] })
	durOf := meanByName(spans, span.dur)
	var sum time.Duration
	for span, metric := range map[string]string{
		spanHTTP: "serve.http_self_us", spanFrontend: "core.frontend_self_us", spanProcess: "core.process_self_us",
		spanParse: "pattern.parse_us", spanLookup: "index.lookup_us", spanFetch: "s3.fetch_us",
		spanXML: "xmltree.parse_us", spanEval: "engine.eval_us",
	} {
		res.set(metric, us(layerSelf(selfOf, span)))
		sum += layerSelf(selfOf, span)
	}
	res.set("trace.layers_sum_share", ratio(float64(sum), float64(durOf[spanHTTP])))
	res.set("core.update_us", us(durOf[spanUpdate]))
	res.set("core.remove_us", us(durOf[spanRemove]))
	res.set("mutate.compact_us_per_pass", us(durOf[spanCompact]))
	var compact, envelopes, untraced time.Duration
	for _, s := range spans {
		switch s.Name {
		case spanCompact:
			compact += s.dur()
		case spanProcess, spanUpdate, spanRemove:
			envelopes += s.dur()
		case spanHTTP:
			untraced += run.samples[s.Request].latency()
		}
	}
	res.set("mutate.compact_busy_share", ratio(float64(compact), float64(compact+envelopes)))
	res.set("mutate.delta_entries_peak", float64(deltaPeak))
	q := float64(facts.queries)
	res.set("trace.overhead_share", ratio(float64(durOf[spanHTTP])*q, float64(untraced))-1)
	res.set("core.docs_fetched_per_query", float64(facts.docsFetched)/q)
	res.set("engine.rows_per_query", float64(facts.rows)/q)
	res.set("index.precision", ratio(float64(facts.usefulDocs), float64(facts.idsFromIndex)))
	res.set("twigjoin.join_us", us(facts.join)/q)
	res.set("xmltree.parse_mb_per_s", ratio(float64(facts.parsedBytes)/(1<<20), (durOf[spanXML]*time.Duration(facts.queries)).Seconds()))

	// Counts come from the untraced run: the registry and the ledger saw
	// every request of it.
	ops := float64(len(run.reqs))
	queries := float64(run.reg.modeled["core.query.response"].Count)
	reg, usage := run.reg, run.cost.Usage
	res.set("serve.queue_wait_us", us(reg.wall["serve.queue.wait"].mean()))
	res.set("serve.shed_share", float64(run.shed)/ops)
	res.set("core.modeled_lookup_ms", ms(reg.modeled["core.query.lookup"].Sum+reg.modeled["core.query.plan"].Sum)/queries)
	res.set("core.modeled_fetch_eval_ms", ms(reg.modeled["core.query.fetch_eval"].Sum)/queries)
	res.set("index.lookup_get_ops", float64(reg.counters["index.lookup.get_ops"])/queries)
	res.set("index.lookup_kb", float64(reg.counters["index.lookup.bytes_fetched"])/1024/queries)
	hits, misses := float64(reg.counters["index.cache.hits"]), float64(reg.counters["index.cache.misses"])
	res.set("index.cache_hit_share", ratio(hits, hits+misses))
	res.set("index.cache_evictions_per_kop", float64(reg.counters["index.cache.evictions"])/ops*1000)
	skipped, read := float64(reg.counters["index.join.blocks_skipped"]), float64(reg.counters["index.join.blocks_read"])
	res.set("twigjoin.blocks_skipped_share", ratio(skipped, skipped+read))
	res.set("s3.get_calls_per_op", float64(usage.Get("s3", "get").Calls)/ops)
	res.set("kv.get_calls_per_op", float64(usage.Get("dynamodb", "get").Calls)/ops)
	res.set("kv.read_units_per_op", float64(usage.Get("dynamodb", "get").Units)/ops)
	res.set("sqs.calls_per_op", float64(usage.ServiceCalls("sqs"))/ops)
	writes := len(run.writeLat)
	res.set("mutate.rewrites_per_mutation",
		ratio(float64(reg.counters["index.compact.items"]+reg.counters["index.compact.deletes"]), float64(writes)))
	if writes > 0 {
		share, err := finalVsFresh(o, run)
		if err != nil {
			return err
		}
		res.set("mutate.final_bytes_vs_fresh", share)
		if err := res.setLatency("serve.write_p50_ms", "serve.write_p95_ms", run.writeLat); err != nil {
			return err
		}
	}
	setRuntime(res, run.gc, ops)
	setCodecProbes(res, twin.w, run.docs)
	zeroIdleLayers(res) // the bulk-build path does no work here
	return nil
}

// zeroIdleLayers reports 0 for every layer metric the workload did not set:
// the layers that do no work on it.
func zeroIdleLayers(res *result) {
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.set(d.Name, 0)
		}
	}
}

// replayQuery times one query on the twin warehouse: first whole, through
// RunQueryOn, then step by step through the layers' public calls. The steps'
// answer must be the envelope's.
func replayQuery(rec *recorder, w *core.Warehouse, in *ec2.Instance, shadow *index.PostingCache, r request, parent, req int, facts *queryFacts) error {
	p := rec.start(spanProcess, parent, req, true)
	whole, stats, err := w.RunQueryOn(in, r.Query.Text, true)
	rec.end(p)
	if err != nil {
		return err
	}
	facts.queries++
	facts.docsFetched += stats.DocsFetched
	facts.idsFromIndex += stats.DocIDsFromIndex
	facts.usefulDocs += distinctURIs(whole)
	facts.rows += len(whole.Rows)

	s := rec.start(spanParse, p, req, true)
	q, err := core.ParseQueryText(r.Query.Text)
	rec.end(s)
	if err != nil {
		return err
	}

	opts := index.LookupOptions{Concurrency: 1, Cache: shadow}
	var docState func(uri string) ([]byte, bool)
	if c := w.Corpus(); c != nil {
		view := c.Pin()
		defer view.Release()
		opts.View = view
		docState = view.DocState
	}
	s = rec.start(spanLookup, p, req, true)
	sets, _, err := index.LookupQuery(w.Store(), w.Strategy, q, opts)
	rec.end(s)
	if err != nil {
		return err
	}

	seen := make(map[string]bool)
	var uris []string
	for _, set := range sets {
		for _, u := range set {
			if !seen[u] {
				seen[u] = true
				uris = append(uris, u)
			}
		}
	}
	sort.Strings(uris)
	raw := make(map[string][]byte, len(uris))
	s = rec.start(spanFetch, p, req, true)
	for _, u := range uris {
		if docState != nil {
			// A superseded version is served from the snapshot the view
			// retains, as the processor does.
			if data, present := docState(u); present && data != nil {
				raw[u] = data
				continue
			}
		}
		obj, _, err := w.Files().Get(core.Bucket, core.DocKey(u))
		if err != nil {
			rec.end(s)
			return err
		}
		raw[u] = obj.Data
	}
	rec.end(s)

	docs := make(map[string]*xmltree.Document, len(uris))
	s = rec.start(spanXML, p, req, true)
	for _, u := range uris {
		if docs[u], err = xmltree.Parse(u, raw[u]); err != nil {
			rec.end(s)
			return err
		}
		facts.parsedBytes += int64(len(raw[u]))
	}
	rec.end(s)

	docSets := make([][]*xmltree.Document, len(sets))
	for i, set := range sets {
		for _, u := range set {
			docSets[i] = append(docSets[i], docs[u])
		}
	}
	s = rec.start(spanEval, p, req, true)
	stepwise, err := engine.EvalQueryOnDocSets(q, docSets, 1)
	rec.end(s)
	if err != nil {
		return err
	}
	if answerOf(stepwise) != answerOf(whole) {
		return fmt.Errorf("%s: the step-by-step replay answered %+v, RunQueryOn %+v", r.Query.Name, answerOf(stepwise), answerOf(whole))
	}

	// The join kernel on its own: every candidate document of every pattern,
	// its streams rebuilt from the document in the blocked form.
	for i, t := range q.Patterns {
		for _, d := range docSets[i] {
			facts.join += timeJoin(t, d)
		}
	}
	return nil
}

func timeJoin(t *pattern.Tree, d *xmltree.Document) time.Duration {
	st := make(twigjoin.IndexedStreams)
	for n, stream := range twigjoin.StreamsFromDocument(t, d) {
		st[n] = idblock.FromIDs(stream)
	}
	start := time.Now()
	// The outcome is not used: the engine, not this probe, decides matches.
	_, _ = twigjoin.MatchIndexed(t, st, nil)
	return time.Since(start)
}

// finalVsFresh compares the drained mutable warehouse's index size with a
// fresh bulk build of the content the write stream left; 1 means that
// updates and compaction leave no residue.
func finalVsFresh(o options, run *serveRun) (float64, error) {
	final := finalContent(run.docs, run.reqs)
	fresh, err := buildWarehouse(warehouseConfig(wlIndexBuild, o.seed, false), final, buildFleet)
	if err != nil {
		return 0, err
	}
	raw, overhead := fresh.w.IndexBytes()
	return ratio(float64(run.indexBytes), float64(raw+overhead)), nil
}

func setRuntime(res *result, gc gcDelta, ops float64) {
	res.set("runtime.gc_cycles_per_kop", float64(gc.Cycles)/ops*1000)
	res.set("runtime.gc_pause_ms_per_kop", ms(gc.Pause)/ops*1000)
	res.set("runtime.heap_peak_mb", gc.HeapSysMB)
}

// codecDocs is how many documents the codec probes extract.
const codecDocs = 100

// setCodecProbes times the identifier codec and the extraction on their own:
// decoding every value of the warehouse's ID table, and extracting and
// re-encoding the identifier lists of the first documents of the corpus.
func setCodecProbes(res *result, w *core.Warehouse, docs []doc) {
	var ids int
	var decode time.Duration
	if d := kv.AsDumper(w.BaseStore()); d != nil {
		for _, item := range d.DumpTable(idTableOf(w.Strategy)) {
			for _, a := range item.Attrs {
				for _, v := range a.Values {
					start := time.Now()
					set, plain, err := index.DecodeIDSet(v, true)
					if err == nil && set != nil {
						plain, err = set.All()
					}
					decode += time.Since(start)
					if err == nil {
						ids += len(plain)
					}
				}
			}
		}
	}
	res.set("idblock.decode_ns_per_id", ratio(float64(decode), float64(ids)))

	if len(docs) > codecDocs {
		docs = docs[:codecDocs]
	}
	opts := index.OptionsFor(w.Store())
	var extract, encode time.Duration
	encoded := 0
	for _, d := range docs {
		parsed, err := xmltree.Parse(d.URI, d.Data)
		if err != nil {
			continue // the corpus was parsed before; cannot happen
		}
		start := time.Now()
		ex := index.Extract(w.Strategy, parsed, opts)
		extract += time.Since(start)
		for _, e := range ex.Tables[idTableOf(w.Strategy)] {
			var list []xmltree.NodeID
			for _, v := range e.Values {
				part, err := index.DecodeIDs(v, opts.BinaryIDs)
				if err != nil {
					continue
				}
				list = append(list, part...)
			}
			start := time.Now()
			index.EncodeIDs(list, opts.BinaryIDs, opts.MaxValueBytes)
			encode += time.Since(start)
			encoded += len(list)
		}
	}
	res.set("index.extract_us_per_doc", us(extract)/float64(len(docs)))
	res.set("index.encode_ids_ns_per_id", ratio(float64(encode), float64(encoded)))
}

// idTableOf names the strategy's identifier table: the second of 2LUPI's two
// tables, the only table of the single-table strategies.
func idTableOf(s index.Strategy) string {
	tables := s.Tables()
	return tables[len(tables)-1]
}

// traceIndexBuild replays one build in the sequential configuration — one
// instance, no extraction read-ahead — as the envelope, then takes it apart:
// every document is fetched, parsed, extracted and bulk-loaded into a twin
// store through the layers' public calls.
func traceIndexBuild(o options, res *result, run *buildRun) error {
	rec := newRecorder()
	cfg := warehouseConfig(o.workload, o.seed, true)
	docs := run.docs
	n := float64(len(docs))

	collect, restore := pausedGC()
	defer restore()
	env := rec.start(spanIndex, 0, 0, false)
	seq, err := buildWarehouse(cfg, docs, 1)
	envelope := rec.end(env)
	if err != nil {
		return err
	}
	twin, err := core.New(cfg)
	if err != nil {
		return err
	}
	loader := index.NewBulkLoader(twin.Store(), index.BulkOptions{})
	opts := index.OptionsFor(twin.Store())
	var parsedBytes int64
	for i, d := range docs {
		collect()
		s := rec.start(spanFetch, env, i, true)
		obj, _, err := seq.w.Files().Get(core.Bucket, core.DocKey(d.URI))
		rec.end(s)
		if err != nil {
			return err
		}
		s = rec.start(spanXML, env, i, true)
		parsed, err := xmltree.Parse(d.URI, obj.Data)
		rec.end(s)
		if err != nil {
			return err
		}
		parsedBytes += int64(len(obj.Data))
		s = rec.start(spanExtract, env, i, true)
		ex := index.Extract(twin.Strategy, parsed, opts)
		rec.end(s)
		s = rec.start(spanWrite, env, i, true)
		_, err = loader.Add(ex)
		rec.end(s)
		if err != nil {
			return err
		}
	}
	s := rec.start(spanWrite, env, len(docs)-1, true)
	_, err = loader.Close()
	rec.end(s)
	if err != nil {
		return err
	}
	if twin.IndexItems() != seq.w.IndexItems() {
		return fmt.Errorf("the step-by-step replay wrote %d items, the build %d", twin.IndexItems(), seq.w.IndexItems())
	}
	if o.outDir != "" {
		if err := rec.write(o.outDir, "trace-"+o.workload+".json"); err != nil {
			return err
		}
	}

	spans := rec.all()
	self := selfTimes(spans)
	total := make(map[string]time.Duration)
	for _, s := range spans {
		total[s.Name] += self[s.ID]
	}
	var sum time.Duration
	for name := range total {
		sum += layerSelf(total, name)
	}
	res.set("s3.fetch_us", us(total[spanFetch])/n)
	res.set("xmltree.parse_us", us(total[spanXML])/n)
	res.set("xmltree.parse_mb_per_s", ratio(float64(parsedBytes)/(1<<20), total[spanXML].Seconds()))
	res.set("index.write_us_per_doc", us(total[spanWrite])/n)
	res.set("core.index_self_us_per_doc", us(layerSelf(total, spanIndex))/n)
	res.set("trace.layers_sum_share", ratio(float64(sum), float64(envelope)))
	res.set("trace.overhead_share", ratio(envelope.Seconds()/n, run.docWall)-1)

	// Counts come from one untraced build: its report and its ledger.
	rep, usage := run.report, run.usage.Usage
	put := usage.Get("dynamodb", "put")
	res.set("index.items_per_doc", float64(rep.Items)/n)
	res.set("index.batch_fill_share", ratio(float64(put.Units), float64(put.Calls*int64(seq.w.Store().Limits().BatchPutItems))))
	res.set("kv.put_calls_per_doc", float64(put.Calls)/n)
	res.set("kv.write_units_per_doc", float64(put.Units)/n)
	res.set("kv.put_kb_per_doc", float64(put.Bytes)/1024/n)
	cores := float64(buildFleet * ec2.Large.Cores)
	res.set("core.modeled_extract_ms_per_doc", ms(rep.AvgExtract)*cores/n)
	res.set("core.modeled_upload_ms_per_doc", ms(rep.AvgUpload)*cores/n)
	res.set("s3.get_calls_per_op", float64(usage.Get("s3", "get").Calls)/n)
	res.set("kv.get_calls_per_op", float64(usage.Get("dynamodb", "get").Calls)/n)
	res.set("kv.read_units_per_op", float64(usage.Get("dynamodb", "get").Units)/n)
	res.set("sqs.calls_per_op", float64(usage.ServiceCalls("sqs"))/n)
	setRuntime(res, run.gc, run.ops)
	setCodecProbes(res, seq.w, docs)
	res.set("index.extract_us_per_doc", us(total[spanExtract])/n) // the replay's, over the whole corpus, not the probe's
	zeroIdleLayers(res)                                           // the query and mutation paths do no work in a build
	return nil
}
