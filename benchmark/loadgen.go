package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// This file is the benchmark's own load generator: a seed-determined request
// sequence built before the clock starts, and a closed loop whose client waits
// for its reply before sending the next request — the shape of the paper's
// callers (front end -> SQS -> processor -> response).

type reqKind uint8

const (
	kindQuery reqKind = iota
	kindPut
	kindDelete
)

// request is one pre-generated request.
type request struct {
	Kind  reqKind
	Query workload.Query // kindQuery
	URI   string         // writes
	Body  []byte         // the POST /query JSON, or the PUT document
}

const (
	writeEvery = 4   // every 4th request of the mixed workload is a write
	zipfS      = 1.4 // read skew of the mixed workload

	// removeEvery makes every 4th write a DELETE. A removed document is not
	// written again, so on the second lap over the corpus the DELETEs find
	// nothing to remove; a run of the gate's length stays inside the first
	// lap (sizings). Bringing removed documents back is what a longer run
	// would need, and the product cannot take it yet: README.md, "A defect
	// this workload found".
	removeEvery = 4
)

// queriesOf returns the query set of a serve workload.
func queriesOf(wl string) []workload.Query {
	all := workload.XMark()
	switch wl {
	case wlServeSelective:
		return all[:5] // q1-q5: 1-6 candidate documents each
	case wlServeScan:
		return []workload.Query{all[5], all[6], all[8], all[9]} // q6, q7, q9, q10
	default:
		return all
	}
}

// mixCounts splits n reads over k queries: equally, or by Zipf weights
// 1/(rank+1)^zipfS with the first query the hottest. Shares are rounded by
// largest remainder, so the counts always add up to n.
func mixCounts(n, k int, zipf bool) []int {
	weights := make([]float64, k)
	total := 0.0
	for r := range weights {
		weights[r] = 1
		if zipf {
			weights[r] = math.Pow(float64(r+1), -zipfS)
		}
		total += weights[r]
	}
	counts := make([]int, k)
	type rest struct {
		frac float64
		rank int
	}
	rests := make([]rest, k)
	given := 0
	for r, w := range weights {
		exact := float64(n) * w / total
		counts[r] = int(exact)
		given += counts[r]
		rests[r] = rest{exact - float64(counts[r]), r}
	}
	sort.Slice(rests, func(i, j int) bool {
		if rests[i].frac != rests[j].frac {
			return rests[i].frac > rests[j].frac
		}
		return rests[i].rank < rests[j].rank
	})
	for i := 0; i < n-given; i++ {
		counts[rests[i].rank]++
	}
	return counts
}

// buildSequence generates the n requests of a serve workload from the seed.
// The seed decides the order of the reads, not how many of each query there
// are: every seed gets the same multiset of reads, so the work of a run — and
// with it every count, byte and modeled time — does not vary with the luck of
// a draw. The mixed workload's writes walk the corpus round-robin at every
// 4th position, the same for every seed, so two writes to one document are a
// whole corpus apart and every seed leaves the same final content; what the
// seed changes there is which reads fall between which writes.
func buildSequence(wl string, seed int64, n int, docs []doc) ([]request, error) {
	mixed := wl == wlServeMixedRW
	queries := queriesOf(wl)
	isWrite := func(i int) bool { return mixed && i%writeEvery == writeEvery-1 }
	// Every round gets the same multiset of reads, shuffled within the
	// round, so the rounds of a run do the same work and their rates compare.
	rng := rand.New(rand.NewSource(seed))
	var order []int
	for r := 0; r < rounds; r++ {
		reads := 0
		for i := r * n / rounds; i < (r+1)*n/rounds; i++ {
			if !isWrite(i) {
				reads++
			}
		}
		first := len(order)
		for qi, c := range mixCounts(reads, len(queries), mixed) {
			for ; c > 0; c-- {
				order = append(order, qi)
			}
		}
		block := order[first:]
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}

	bodies := make([][]byte, len(queries))
	for qi, q := range queries {
		body, err := json.Marshal(serve.QueryRequest{Query: q.Text, UseIndex: true})
		if err != nil {
			return nil, err
		}
		bodies[qi] = body
	}
	reqs := make([]request, n)
	writes := 0
	for i := range reqs {
		if isWrite(i) {
			writes++
			d := docs[writes%len(docs)]
			reqs[i] = request{Kind: kindPut, URI: d.URI, Body: stampRevision(d.Data, writes)}
			if writes%removeEvery == 0 {
				reqs[i] = request{Kind: kindDelete, URI: d.URI}
			}
			continue
		}
		qi := order[0]
		order = order[1:]
		reqs[i] = request{Kind: kindQuery, Query: queries[qi], Body: bodies[qi]}
	}
	return reqs, nil
}

// sequenceHash identifies a request sequence: same seed, same hash.
func sequenceHash(reqs []request) uint64 {
	h := fnv.New64a()
	var n [8]byte
	for _, r := range reqs {
		h.Write([]byte{byte(r.Kind)})
		h.Write([]byte(r.URI))
		binary.LittleEndian.PutUint64(n[:], uint64(len(r.Body)))
		h.Write(n[:])
		h.Write(r.Body)
	}
	return h.Sum64()
}

// idleRemoves counts the DELETEs of a sequence, and those among them that
// find their document already removed.
func idleRemoves(reqs []request) (idle, removes int) {
	gone := make(map[string]bool)
	for _, r := range reqs {
		switch r.Kind {
		case kindPut:
			gone[r.URI] = false
		case kindDelete:
			removes++
			if gone[r.URI] {
				idle++
			}
			gone[r.URI] = true
		}
	}
	return idle, removes
}

// finalContent replays the writes of a sequence over the initial corpus and
// returns the documents left at the end, in URI order of the initial corpus
// (every write targets an initial URI).
func finalContent(docs []doc, reqs []request) []doc {
	content := make(map[string][]byte, len(docs))
	for _, d := range docs {
		content[d.URI] = d.Data
	}
	for _, r := range reqs {
		switch r.Kind {
		case kindPut:
			content[r.URI] = r.Body
		case kindDelete:
			delete(content, r.URI)
		}
	}
	var out []doc
	for _, d := range docs {
		if data, ok := content[d.URI]; ok {
			out = append(out, doc{URI: d.URI, Data: data})
		}
	}
	return out
}

// sample is the outcome of one request. Start and End are measured from the
// start of the run; End is taken after the whole body was read and decoded.
// CPU is the processor time the whole process used in between: the client
// waits for its reply, so all of it went into serving the request or into the
// collector.
type sample struct {
	Start, End time.Duration
	CPU        time.Duration
	Err        string // empty when the request succeeded (HTTP 200, decodable body)
	Answer     answer // queries only
}

func (s sample) latency() time.Duration { return s.End - s.Start }

// do sends one request and waits for its decoded reply.
func (d *daemon) do(r request) (answer, error) {
	var (
		req *http.Request
		err error
	)
	switch r.Kind {
	case kindQuery:
		req, err = http.NewRequest(http.MethodPost, d.url+"/query", bytes.NewReader(r.Body))
	case kindPut:
		req, err = http.NewRequest(http.MethodPut, d.url+"/document?uri="+url.QueryEscape(r.URI), bytes.NewReader(r.Body))
	case kindDelete:
		req, err = http.NewRequest(http.MethodDelete, d.url+"/document?uri="+url.QueryEscape(r.URI), nil)
	}
	if err != nil {
		return answer{}, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		var e serve.ErrorResponse
		_ = json.Unmarshal(body, &e) // the status alone already fails the request
		return answer{}, fmt.Errorf("HTTP %d %s %s", resp.StatusCode, e.Reason, e.Error)
	}
	if r.Kind != kindQuery {
		var wr serve.WriteResponse
		return answer{}, json.Unmarshal(body, &wr)
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return answer{}, err
	}
	var a answer
	for _, row := range qr.Rows {
		a.addRow(row.URI, row.Cols)
	}
	if a.Rows != qr.RowCount {
		return a, fmt.Errorf("rowCount %d but %d rows", qr.RowCount, a.Rows)
	}
	return a, nil
}

// drive sends the requests in sequence order through a closed loop of one
// client: the next request leaves when the reply to the previous one has been
// read. One client, because the reference box has two cores and a request
// already keeps the daemon, the collector and the client busy; with a client
// per core every latency was a reading of how the two requests in flight got
// in each other's way, and the median fell between the two modes of that.
// Sequence order also keeps the write stream, and with it compaction and the
// final corpus, independent of timing.
//
// After every request the yardstick runs its share of laps (none when y is
// nil, as in the warm-up); the laps of the call are returned as a stretch.
// Sample times count from the start of the call and include the laps run
// before them; a sample's latency does not.
func (d *daemon) drive(reqs []request, y *yardstick) ([]sample, stretch) {
	samples := make([]sample, len(reqs))
	var (
		pace pacer
		from int
	)
	if y != nil {
		pace, from = pacer{y: y}, y.mark()
	}
	t0 := time.Now()
	for i, r := range reqs {
		c0 := cpuTime()
		s := sample{Start: time.Since(t0)}
		a, err := d.do(r)
		s.End = time.Since(t0)
		s.CPU = cpuTime() - c0
		s.Answer = a
		if err != nil {
			s.Err = err.Error()
		}
		samples[i] = s
		if y != nil {
			pace.after(s.latency())
		}
	}
	if y == nil {
		return samples, nil
	}
	return samples, y.since(from)
}
