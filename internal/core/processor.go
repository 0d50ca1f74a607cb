package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

	// PlanTime is the local physical plan over the fetched index data
	// ("plan execution"); FetchEvalTime the summed S3 transfer + local
	// evaluation over candidate documents ("S3 documents transfer and
	// results extraction"). The index-store latency ("DynamoDB get") is
	// Lookup.GetTime. Per-document work runs on all cores, so ResponseTime
	// — the modeled elapsed time from message retrieval to message
	// deletion — is less than the sum of the components.
	PlanTime      time.Duration
	FetchEvalTime time.Duration
	ResponseTime  time.Duration

	// DocIDsFromIndex is the per-pattern sum of URIs returned by the
	// look-up (Table 5's "Doc. IDs from index"); DocsFetched the distinct
	// documents transferred from S3.
	DocIDsFromIndex int
	DocsFetched     int

	ResultRows  int
	ResultBytes int64

	// Lookup is the look-up statistics of steps 10-12: among them GetOps,
	// |op(q,D,I)|, and GetTime, with cache traffic, twig candidates and
	// store retries.
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
	mem := w.queryMems.Get()
	defer w.putQueryMem(mem)
	plan, err := engine.NewPlan(q, &mem.plan)
	if err != nil {
		return stats, err
	}
	defer plan.Release() // on a failure; step 14 releases it sooner

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
		lopts.Scratch = &mem.lookup
		if view != nil {
			lopts.View = view
		}
		sets, lst, err := index.LookupQuery(w.store, w.Strategy, q, lopts)
		if err != nil {
			lsp.SetError(err)
			lsp.End()
			return stats, err
		}
		perPattern = sets
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
	// intra-machine parallelism the paper gets from multi-threading. The
	// task evaluates every pattern whose candidate list names the document,
	// so a tree is dead once its task ends; the value joins wait for all
	// of them (plan.Finish). rows[pi][di] are pattern pi's on the di-th
	// document of its list; every list is sorted (LookupQuery,
	// DocumentURIs and Corpus.URIs return them so), and so is their union.
	uris, rows := mem.layout(perPattern)
	stats.DocsFetched = len(uris)
	esp := sp.Child(obs.SpanEval)
	esp.SetAttrInt("docs", int64(len(uris)))

	// The real fetch, parse and per-document evaluation fan out over a
	// bounded worker pool that stops claiming after a failure; the modeled
	// time is then scheduled on the instance in URI order, so modeled
	// times, billing and error reporting are identical to the sequential
	// pipeline at any pool size. The parse builds only the nodes the query
	// can read; the modeled parse and evaluation times go by the documents'
	// bytes as before.
	fanOutStart := time.Now()
	fetched := mem.fetchedDocs(len(uris))
	onCaller, helperStart, ferr := w.fetchDocuments(uris, view, engine.ProjectionOf(q), fetched, func(i int, doc *xmltree.Document) {
		for pi, us := range perPattern {
			if di, ok := slices.BinarySearch(us, uris[i]); ok {
				rows[pi][di] = plan.EvalPattern(pi, doc)
			}
		}
	})
	fanOutEnd := time.Now()
	var scanned, built, hashed int64
	var docMatch time.Duration
	for _, r := range fetched {
		if r.err != nil {
			esp.SetError(r.err)
			esp.End()
			return stats, r.err
		}
		scanned += int64(r.scanned)
		built += int64(r.built)
		hashed += int64(r.hashed)
		docMatch += r.match
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
	finishStart := time.Now()
	result, err := plan.Finish(rows)
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
	esp.SetAttrInt("names_hashed", hashed)
	esp.SetAttrInt("docs_on_caller", int64(onCaller))
	esp.SetAttrInt("helper_start_us", helperStart.Microseconds())
	esp.SetAttrInt("fetch_parse_us", fanOutEnd.Sub(fanOutStart).Microseconds())
	esp.SetAttrInt("doc_match_us", docMatch.Microseconds())
	esp.SetAttrInt("match_us", time.Since(finishStart).Microseconds())
	esp.End()

	// Step 14: write the results to the file store.
	rsp := sp.Child(obs.SpanResults)
	key := resultsPrefix + msg.ID
	mem.body = encodeResult(mem.body[:0], result)
	plan.Release()
	putDur, err := w.files.Put(Bucket, key, mem.body, nil)
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

// queryMem is the memory one query works in: its look-up's scratch, its
// plan's rows and matchers (which engine.Plan.Release clears), the sorted
// candidates, the table of rows handed to Finish, the fetch tasks' outcomes
// and the step-14 object, which the file store copies. processQuery takes
// one from the warehouse's queryMems and puts it back, cleared, when it
// returns.
type queryMem struct {
	lookup  index.Scratch
	plan    engine.Memory
	uris    []string
	cells   [][]engine.Row // rows[pi] of every pattern, end to end
	rows    [][][]engine.Row
	fetched []fetchedDoc
	body    []byte
}

// An idle queryMem keeps an object buffer of at most maxKeptBody bytes: a
// scan query's object is tens of KB, and one huge answer should not ride
// along with every later query.
const maxKeptBody = 1 << 20

// layout returns the sorted union of the candidate lists and the table of
// rows, rows[pi] as long as perPattern[pi] and all nil.
func (m *queryMem) layout(perPattern [][]string) (uris []string, rows [][][]engine.Row) {
	total := 0
	for _, us := range perPattern {
		total += len(us)
	}
	uris = slices.Grow(m.uris[:0], total)
	for _, us := range perPattern {
		uris = append(uris, us...)
	}
	slices.Sort(uris)
	m.uris = uris
	uris = slices.Compact(uris)
	m.cells = slices.Grow(m.cells[:0], total)[:total]
	m.rows = slices.Grow(m.rows[:0], len(perPattern))[:len(perPattern)]
	cells := m.cells
	for pi, us := range perPattern {
		m.rows[pi], cells = cells[:len(us):len(us)], cells[len(us):]
	}
	return uris, m.rows
}

// fetchedDocs returns n zeroed fetch outcomes.
func (m *queryMem) fetchedDocs(n int) []fetchedDoc {
	m.fetched = slices.Grow(m.fetched[:0], n)[:n]
	return m.fetched
}

// putQueryMem clears what m holds of its query and makes it idle again.
func (w *Warehouse) putQueryMem(m *queryMem) {
	clear(m.uris)
	clear(m.cells)
	clear(m.rows)
	clear(m.fetched)
	if cap(m.body) > maxKeptBody {
		m.body = nil
	}
	m.uris, m.cells, m.rows, m.fetched = m.uris[:0], m.cells[:0], m.rows[:0], m.fetched[:0]
	w.queryMems.Put(m)
}

// fetchedDoc is the outcome of one step-13 task: the modeled quantities the
// coordinator schedules afterwards, and what the task counted.
type fetchedDoc struct {
	fetch time.Duration
	bytes int64
	// scanned and built are the document's node counts, hashed the names
	// its parse looked up by hash, match the wall time eval took on it.
	scanned, built, hashed int
	match                  time.Duration
	err                    error
}

// fetchDocuments retrieves the candidate documents, parses each under proj
// and hands it to eval with its index in uris, one task per URI, on a pool
// of at most docWorkers goroutines, the caller's own among them, and
// records task i's outcome in results[i]. A task releases its document once
// eval returns (xmltree.Document.Release), so eval must keep nothing of it,
// not a node and not a string, and the next parse on the worker reuses its
// memory. eval runs on several goroutines at once, on different documents.
// Once a task has failed, no worker claims another. It returns how many
// tasks the caller's own goroutine ran, and how long after the fan-out's
// start the first helper goroutine came to claim one (0 when none
// started). The returned error only signals
// that a task failed; callers scan results in order for the authoritative
// per-URI error, that of the first failing URI in URI order (the order the
// sequential pipeline would hit it).
//
// With a pinned view, each document resolves at the view's corpus version:
// superseded versions read their retained snapshot bytes from the
// warehouse's memory (no billed fetch), the current version reads the file
// store as always. A concurrent update can overwrite the file between the
// resolution and the fetch, so the fetched bytes are re-checked against
// the view afterwards — the retained copy wins if the fetch raced.
func (w *Warehouse) fetchDocuments(uris []string, view *mutate.View, proj *xmltree.Projection, results []fetchedDoc, eval func(i int, doc *xmltree.Document)) (onCaller int, helperStart time.Duration, err error) {
	parseInto := func(i int, data []byte, fetch time.Duration) error {
		doc, err := xmltree.ParseProjected(uris[i], data, proj)
		if err != nil {
			results[i].err = err
			return err
		}
		start := time.Now()
		eval(i, doc)
		results[i] = fetchedDoc{fetch: fetch, bytes: int64(len(data)), scanned: doc.NodesScanned(), built: doc.NodeCount(), hashed: doc.NamesHashed(), match: time.Since(start)}
		doc.Release()
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

	// Indexes are claimed in URI order and a claimed task runs to its end,
	// so every task before the first failing one has run. The pool's state
	// is one object, so that the helpers share one allocation.
	pool := &struct {
		next, started atomic.Int64 // started: ns from start to the first helper's claim
		failed        atomic.Bool
		wg            sync.WaitGroup
		start         time.Time
	}{start: time.Now()}
	claim := func() (ran int) {
		for !pool.failed.Load() {
			i := int(pool.next.Add(1)) - 1
			if i >= len(uris) {
				return ran
			}
			ran++
			if fetchOne(i) != nil {
				pool.failed.Store(true)
			}
		}
		return ran
	}
	for range min(w.docWorkers(), len(uris)) - 1 {
		pool.wg.Add(1)
		go func() {
			defer pool.wg.Done()
			pool.started.CompareAndSwap(0, max(int64(time.Since(pool.start)), 1))
			claim()
		}()
	}
	onCaller = claim()
	pool.wg.Wait()
	helperStart = time.Duration(pool.started.Load())
	if pool.failed.Load() {
		return onCaller, helperStart, fmt.Errorf("core: document fetch cancelled")
	}
	return onCaller, helperStart, nil
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
	got, rtt, err := w.queues.Receive(context.Background(), QueryQueue, 10*time.Minute, 0)
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
		m, frtt, err := w.queues.Receive(context.Background(), ResponseQueue, time.Minute, 0)
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
