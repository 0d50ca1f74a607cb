package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// This file implements the query processor module (steps 9-15 of Figure 1):
// retrieve a query message, look up the index, fetch the candidate
// documents from the file store, evaluate the query with the local engine,
// write the results to the file store and post a response message — and the
// synchronous driver that runs the whole query side inline.

// queryMessage is the payload of the query request queue.
type queryMessage struct {
	ID       string `json:"id"`
	Query    string `json:"query"`
	Strategy string `json:"strategy"`
	NoIndex  bool   `json:"noIndex,omitempty"`
}

// responseMessage is the payload of the query response queue. Rows is the
// result's row count, so that the front end can hand the result object on
// without decoding it.
type responseMessage struct {
	ID        string `json:"id"`
	ResultKey string `json:"resultKey,omitempty"`
	Rows      int    `json:"rows,omitempty"`
	Error     string `json:"error,omitempty"`
}

// QueryStats decomposes one query's processing the way Figures 9b/9c do,
// plus the counts Table 5 and the cost model need.
type QueryStats struct {
	ID       string
	Strategy string // "none" for the no-index baseline

	// LookupGetTime is the index-store latency ("DynamoDB get");
	// PlanTime the local physical plan over the fetched index data
	// ("plan execution"); FetchEvalTime the summed S3 transfer + local
	// evaluation over candidate documents ("S3 documents transfer and
	// results extraction"). Per-document work runs on all cores, so
	// ResponseTime — the modeled elapsed time from message retrieval to
	// message deletion — is less than the sum of the components.
	LookupGetTime time.Duration
	PlanTime      time.Duration
	FetchEvalTime time.Duration
	ResponseTime  time.Duration

	// GetOps is |op(q,D,I)|; DocIDsFromIndex the per-pattern sum of URIs
	// returned by the look-up (Table 5's "Doc. IDs from index");
	// DocsFetched the distinct documents transferred from S3.
	GetOps          int64
	DocIDsFromIndex int
	DocsFetched     int

	ResultRows  int
	ResultBytes int64

	// Lookup is the full look-up statistics of steps 10-12 (cache traffic,
	// twig candidates, store retries); GetOps and LookupGetTime above are
	// its headline numbers, kept for compatibility.
	Lookup index.LookupStats
}

// answerQuery is steps 9-14 for one received query message: decode it,
// process it on the instance and build the response for step 15. root is the
// caller's "query" span, which learns the ID here (a live processor cannot
// know it sooner). A message that does not decode gets an ID-less error
// response, so that it is consumed instead of redelivered forever.
func (w *Warehouse) answerQuery(in *ec2.Instance, body string, root *obs.Span, view *mutate.View) (responseMessage, QueryStats) {
	var msg queryMessage
	if err := json.Unmarshal([]byte(body), &msg); err != nil {
		root.SetError(err)
		return responseMessage{Error: err.Error()}, QueryStats{}
	}
	root.SetAttr("id", msg.ID)
	stats, err := w.processQuery(in, msg, root, view)
	root.AddModeled(stats.ResponseTime)
	if err != nil {
		root.SetError(err)
		return responseMessage{ID: msg.ID, Error: err.Error()}, stats
	}
	return responseMessage{ID: msg.ID, ResultKey: resultsPrefix + msg.ID, Rows: stats.ResultRows}, stats
}

// postResponse is step 15: post the response, then delete the query message
// it answers. Neither call is charged to an instance.
func (w *Warehouse) postResponse(resp responseMessage, receipt string) error {
	body, _ := json.Marshal(resp) // two strings: cannot fail
	if _, _, err := w.queues.Send(ResponseQueue, string(body)); err != nil {
		return err
	}
	_, err := w.queues.Delete(QueryQueue, receipt)
	return err
}

// processQuery executes one query message on one instance: the exact
// service calls of Figure 1's steps 10-14, the modeled time scheduled on the
// instance, the result written to the file store under the query's ID. A
// nil view on a mutable corpus pins the current version at admission and
// releases it when the query settles, so that every look-up and document
// fetch of the query sees one consistent corpus version whatever indexing
// churn or compaction runs concurrently. When tracing is on, the work is a
// "process" span under parent, with lookup/eval/results children.
func (w *Warehouse) processQuery(in *ec2.Instance, msg queryMessage, parent *obs.Span, view *mutate.View) (stats QueryStats, err error) {
	stats = QueryStats{ID: msg.ID, Strategy: msg.Strategy}
	if msg.NoIndex {
		stats.Strategy = "none"
	}
	if view == nil && w.corpus != nil {
		view = w.corpus.Pin()
		defer view.Release()
	}
	sp := parent.Child(obs.SpanProcess)
	sp.SetAttr("id", msg.ID)
	wallStart := time.Now()
	defer func() {
		if err != nil {
			sp.SetError(err)
			w.met.queryFailed.Inc()
		} else {
			w.met.queryProcessed.Inc()
			w.met.queryResponse.Observe(time.Since(wallStart), stats.ResponseTime)
		}
		sp.SetModeled(stats.ResponseTime)
		sp.End()
	}()
	q, err := ParseQueryText(msg.Query)
	if err != nil {
		return stats, err
	}

	in.TL.Level()
	t0 := in.TL.Elapsed()

	// Steps 10-12: index look-up and local plan, on the coordinating core.
	var perPattern [][]string
	if msg.NoIndex {
		var uris []string
		if view != nil {
			// Snapshot-consistent corpus listing: the file store may
			// already hold documents newer than the pinned version.
			uris = w.corpus.URIs(view.Version())
		} else {
			var err error
			uris, err = w.DocumentURIs()
			if err != nil {
				return stats, err
			}
		}
		perPattern = make([][]string, len(q.Patterns))
		for i := range perPattern {
			perPattern[i] = uris
		}
	} else {
		lsp := sp.Child(obs.SpanLookup)
		lopts := w.lookupOpts
		lopts.Span = lsp
		if view != nil {
			lopts.View = view
		}
		// Each query gets a fresh modeled-time/retry budget (none when no
		// deadline or retry pool is configured); the look-up charges its
		// store latencies against it and stops once it is spent.
		lopts.Ctx = w.queryContext()
		sets, lst, err := index.LookupQuery(w.store, w.Strategy, q, lopts)
		if err != nil {
			lsp.SetError(err)
			lsp.End()
			return stats, err
		}
		perPattern = sets
		stats.GetOps = lst.GetOps
		stats.LookupGetTime = lst.GetTime
		stats.PlanTime = in.ComputeDuration(lst.BytesFetched, w.Perf.PlanBytesPerECUSec)
		stats.Lookup = lst
		in.RunOn(0, lst.GetTime+stats.PlanTime)
		w.noteLookup(lst)
		w.met.queryLookup.ObserveModeled(lst.GetTime)
		w.met.queryPlan.ObserveModeled(stats.PlanTime)
		lsp.SetModeled(lst.GetTime + stats.PlanTime)
		lsp.SetAttrInt("get_ops", lst.GetOps)
		lsp.SetAttrInt("bytes_fetched", lst.BytesFetched)
		lsp.End()
	}
	for _, uris := range perPattern {
		stats.DocIDsFromIndex += len(uris)
	}

	// Step 13: fetch the union of candidate documents and evaluate. Each
	// document is one task, scheduled on the least-loaded core — the
	// intra-machine parallelism the paper gets from multi-threading.
	union := make(map[string]bool)
	for _, uris := range perPattern {
		for _, u := range uris {
			union[u] = true
		}
	}
	uris := make([]string, 0, len(union))
	for u := range union {
		uris = append(uris, u)
	}
	sort.Strings(uris)
	stats.DocsFetched = len(uris)
	esp := sp.Child(obs.SpanEval)
	esp.SetAttrInt("docs", int64(len(uris)))

	// The real fetch + parse work fans out over a bounded worker pool with
	// first-error-wins cancellation; the modeled time is then scheduled on
	// the instance in URI order, so modeled times, billing and error
	// reporting are identical to the sequential pipeline at any pool size.
	// The parse builds only the nodes the query can read; the modeled parse
	// and evaluation times go by the documents' bytes as before.
	fetchStart := time.Now()
	fetched, ferr := w.fetchDocuments(uris, view, engine.ProjectionOf(q))
	matchStart := time.Now()
	docs := make(map[string]*xmltree.Document, len(uris))
	var scanned, built int64
	for i, r := range fetched {
		if r.err != nil {
			esp.SetError(r.err)
			esp.End()
			return stats, r.err
		}
		docs[uris[i]] = r.doc
		scanned += int64(r.doc.NodesScanned())
		built += int64(r.doc.NodeCount())
		task := r.fetch +
			in.ComputeDuration(r.bytes, w.Perf.ParseBytesPerECUSec) +
			in.ComputeDuration(r.bytes, w.Perf.EvalBytesPerECUSec)
		stats.FetchEvalTime += task
		in.Run(task)
	}
	if ferr != nil {
		// Unreachable in practice (a recorded error surfaces above), but
		// never let a cancelled pool pass silently.
		esp.SetError(ferr)
		esp.End()
		return stats, ferr
	}
	docSets := make([][]*xmltree.Document, len(perPattern))
	for i, us := range perPattern {
		for _, u := range us {
			docSets[i] = append(docSets[i], docs[u])
		}
	}
	result, err := engine.EvalQueryOnDocSets(q, docSets, w.docWorkers())
	if err != nil {
		esp.SetError(err)
		esp.End()
		return stats, err
	}
	stats.ResultRows = len(result.Rows)
	stats.ResultBytes = result.Bytes()
	w.met.queryFetchEval.ObserveModeled(stats.FetchEvalTime)
	w.met.nodesScanned.Add(scanned)
	w.met.nodesBuilt.Add(built)
	esp.SetModeled(stats.FetchEvalTime)
	esp.SetAttrInt("rows", int64(stats.ResultRows))
	esp.SetAttrInt("nodes_scanned", scanned)
	esp.SetAttrInt("nodes_built", built)
	esp.SetAttrInt("fetch_parse_us", matchStart.Sub(fetchStart).Microseconds())
	esp.SetAttrInt("match_us", time.Since(matchStart).Microseconds())
	esp.End()

	// Step 14: write the results to the file store.
	rsp := sp.Child(obs.SpanResults)
	key := resultsPrefix + msg.ID
	putDur, err := w.files.Put(Bucket, key, encodeResult(result), nil)
	if err != nil {
		rsp.SetError(err)
		rsp.End()
		return stats, err
	}
	in.RunOn(0, putDur)
	rsp.SetModeled(putDur)
	rsp.SetAttrInt("bytes", stats.ResultBytes)
	rsp.End()

	in.TL.Level()
	stats.ResponseTime = in.TL.Elapsed() - t0
	return stats, nil
}

// fetchedDoc is the outcome of one step-13 task: the parsed document plus
// the modeled quantities the coordinator schedules afterwards.
type fetchedDoc struct {
	doc   *xmltree.Document
	fetch time.Duration
	bytes int64
	err   error
}

// fetchDocuments retrieves the candidate documents and parses them under
// proj, one task per URI, on a pool of at most docWorkers goroutines. The
// first failing task (in URI order — the order the sequential pipeline would
// hit it) closes a cancel channel, so no new tasks start after an error. The
// returned error only signals that cancellation fired; callers scan the
// slice in order for the authoritative per-URI error.
//
// With a pinned view, each document resolves at the view's corpus version:
// superseded versions read their retained snapshot bytes from the
// warehouse's memory (no billed fetch), the current version reads the file
// store as always. A concurrent update can overwrite the file between the
// resolution and the fetch, so the fetched bytes are re-checked against
// the view afterwards — the retained copy wins if the fetch raced.
func (w *Warehouse) fetchDocuments(uris []string, view *mutate.View, proj *xmltree.Projection) ([]fetchedDoc, error) {
	results := make([]fetchedDoc, len(uris))
	parseInto := func(i int, data []byte, fetch time.Duration) error {
		doc, err := xmltree.ParseProjected(uris[i], data, proj)
		if err != nil {
			results[i].err = err
			return err
		}
		results[i] = fetchedDoc{doc: doc, fetch: fetch, bytes: int64(len(data))}
		return nil
	}
	fetchOne := func(i int) error {
		if view != nil {
			data, present := view.DocState(uris[i])
			if !present {
				// Postings at the pinned version never name documents
				// removed at or before it; surface the inconsistency.
				err := fmt.Errorf("core: %s absent at corpus version %d", uris[i], view.Version())
				results[i].err = err
				return err
			}
			if data != nil {
				return parseInto(i, data, 0)
			}
		}
		obj, fetch, err := w.files.Get(Bucket, DocKey(uris[i]))
		if err != nil {
			results[i].err = err
			return err
		}
		data := obj.Data
		if view != nil {
			if retained, _ := view.DocState(uris[i]); retained != nil {
				data = retained // the billed fetch raced an update
			}
		}
		return parseInto(i, data, fetch)
	}

	workers := w.docWorkers()
	if workers > len(uris) {
		workers = len(uris)
	}
	if workers <= 1 {
		for i := range uris {
			if err := fetchOne(i); err != nil {
				return results, err
			}
		}
		return results, nil
	}

	var (
		wg     sync.WaitGroup
		once   sync.Once
		cancel = make(chan struct{})
		idx    = make(chan int)
	)
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fetchOne(i); err != nil {
					once.Do(func() { close(cancel) })
				}
			}
		}()
	}
feed:
	for i := range uris {
		select {
		case idx <- i:
		case <-cancel:
			break feed
		}
	}
	close(idx)
	wg.Wait()
	select {
	case <-cancel:
		return results, fmt.Errorf("core: document fetch cancelled")
	default:
		return results, nil
	}
}

// ParseQueryText compiles a query in either supported surface syntax: the
// tree-pattern notation of package pattern, or the XQuery fragment of
// package xquery (Section 4's concrete syntax). Texts whose first token is
// the FLWR keyword `for` followed by a variable are treated as XQuery;
// everything else as a pattern. (A tree pattern rooted at an element
// literally named "for" and carrying a variable would be misdetected;
// parenthesize nothing — just rename such an element or call
// pattern.Parse directly.)
func ParseQueryText(text string) (*pattern.Query, error) {
	trimmed := strings.TrimSpace(text)
	if strings.HasPrefix(trimmed, "for ") || strings.HasPrefix(trimmed, "for$") {
		rest := strings.TrimSpace(trimmed[3:])
		if strings.HasPrefix(rest, "$") {
			return xquery.Parse(text)
		}
	}
	return pattern.Parse(text)
}

// encodeResult serializes a result for the file store (step 14), once, in
// the wire form of a served answer: the live front end hands the object's
// bytes through (QueryOutcome.Body), only the synchronous driver decodes them.
func encodeResult(r *engine.Result) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// Result values are plain strings; marshaling cannot fail.
		panic(err)
	}
	return b
}

func decodeResult(data []byte) (*engine.Result, error) {
	var r engine.Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("core: decoding result: %w", err)
	}
	return &r, nil
}

// RunQueryOn executes one query synchronously on one instance: the live
// pipeline's own steps called inline, hence the very same queue/store
// requests. The front end sends the query message (sendQuery, steps 7-8);
// the processor receives it (9), answers it (answerQuery, 10-14) and posts
// the response (postResponse, 15); the front end receives the response (16)
// and collects the result object (collectResult, 17-18). The driver only adds
// the schedule — non-waiting receives, the query receive's round trip charged
// to the instance's coordinating core, one "query" span over the round trip —
// and the decoding of the object, which the live front end hands on as bytes.
// useIndex=false is the "no index" baseline of Section 8.
func (w *Warehouse) RunQueryOn(in *ec2.Instance, queryText string, useIndex bool) (*engine.Result, QueryStats, error) {
	return w.runQueryView(in, queryText, useIndex, nil)
}

// RunQueryOnView executes one query synchronously against the caller's
// pinned snapshot view instead of the version current at admission. Views
// cannot serialize through the query queue, so this exists only on the
// synchronous driver; the property tests use it to replay a query at a
// historical corpus version while mutations continue.
func (w *Warehouse) RunQueryOnView(in *ec2.Instance, queryText string, view *mutate.View) (*engine.Result, QueryStats, error) {
	return w.runQueryView(in, queryText, true, view)
}

func (w *Warehouse) runQueryView(in *ec2.Instance, queryText string, useIndex bool, view *mutate.View) (*engine.Result, QueryStats, error) {
	id := w.nextQueryID()
	root := w.tracer.Start(obs.SpanQuery)
	defer root.End()
	if err := w.sendQuery(root, id, queryText, useIndex); err != nil {
		return nil, QueryStats{}, err
	}
	got, rtt, err := w.queues.Receive(QueryQueue, 10*time.Minute)
	if err != nil {
		return nil, QueryStats{}, err
	}
	if got == nil {
		return nil, QueryStats{}, fmt.Errorf("core: query message vanished")
	}
	in.RunOn(0, rtt)
	root.AddModeled(rtt)
	answer, stats := w.answerQuery(in, got.Body, root, view)
	if err := w.postResponse(answer, got.Receipt); err != nil {
		return nil, stats, err
	}
	for {
		m, frtt, err := w.queues.Receive(ResponseQueue, time.Minute)
		if err != nil {
			return nil, stats, err
		}
		if m == nil {
			return nil, stats, fmt.Errorf("core: no response for query %s", id)
		}
		resp, ok := w.readResponse(m)
		if !ok {
			continue
		}
		if resp.ID != id {
			// Another caller's: a query submitted live and not collected yet.
			w.stepOver(m)
			continue
		}
		body, err := w.collectResult(root, resp, m.Receipt, frtt)
		if err != nil {
			return nil, stats, err
		}
		res, err := decodeResult(body)
		return res, stats, err
	}
}
