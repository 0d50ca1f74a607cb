package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"testing"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xmark"
)

// Tests of the daemon's write surface: PUT/DELETE /document over a mutable
// warehouse, rejection when the corpus is immutable, and concurrent clients
// mixing queries and writes.

// buildMutablePaintingsWarehouse loads and indexes the paintings corpus
// into a mutable-corpus warehouse.
func buildMutablePaintingsWarehouse(t testing.TB) *core.Warehouse {
	t.Helper()
	w, err := core.New(core.Config{Strategy: index.TwoLUPI, MutableCorpus: true, CompactEveryDocs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range xmark.Paintings() {
		if err := w.SubmitDocument(doc.URI, doc.Data); err != nil {
			t.Fatal(err)
		}
	}
	fleet := ec2.LaunchFleet(w.Ledger(), ec2.Large, 1)
	if _, err := w.IndexCorpusOn(fleet, nil); err != nil {
		t.Fatal(err)
	}
	return w
}

// queryRows posts one query and returns its rows as sorted "uri|cols"
// strings.
func queryRows(t *testing.T, baseURL, query string) []string {
	t.Helper()
	resp := postQuery(t, baseURL, query)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(qr.Rows))
	for i, r := range qr.Rows {
		rows[i] = fmt.Sprintf("%s|%v", r.URI, r.Cols)
	}
	sort.Strings(rows)
	return rows
}

func doDocument(t *testing.T, method, baseURL, uri string, body []byte) *http.Response {
	t.Helper()
	target := baseURL + "/document"
	if uri != "" {
		target += "?uri=" + url.QueryEscape(uri)
	}
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, target, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// The full write round-trip over HTTP: removing a document makes its rows
// vanish from the next answer, re-inserting the identical content restores
// the original answer byte for byte, and the write counters account every
// accepted mutation.
func TestDocumentWriteEndpoint(t *testing.T) {
	w := buildMutablePaintingsWarehouse(t)
	backend := NewWarehouseBackend(w, 2, ec2.XL, core.WorkerOptions{})
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: backend, Registry: reg, Limits: Limits{Workers: 2, QueueDepth: 8}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baseURL := "http://" + addr
	waitReady(t, baseURL)

	// Find a workload query whose answer spans at least two documents.
	var query string
	var base []string
	for _, q := range workload.Paintings() {
		rows := queryRows(t, baseURL, q.Text)
		uris := map[string]bool{}
		for _, r := range rows {
			uris[r[:bytes.IndexByte([]byte(r), '|')]] = true
		}
		if len(uris) >= 2 {
			query, base = q.Text, rows
			break
		}
	}
	if query == "" {
		t.Fatal("no paintings query spans two documents")
	}
	victim := base[0][:bytes.IndexByte([]byte(base[0]), '|')]
	var victimData []byte
	for _, d := range xmark.Paintings() {
		if d.URI == victim {
			victimData = d.Data
		}
	}
	if victimData == nil {
		t.Fatalf("row URI %q not in the paintings corpus", victim)
	}

	// DELETE: the document's rows vanish; every other row survives.
	resp := doDocument(t, http.MethodDelete, baseURL, victim, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	var want []string
	for _, r := range base {
		if r[:bytes.IndexByte([]byte(r), '|')] != victim {
			want = append(want, r)
		}
	}
	got := queryRows(t, baseURL, query)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after DELETE:\n got %v\nwant %v", got, want)
	}

	// PUT the identical content back: the original answer returns exactly.
	resp = doDocument(t, http.MethodPut, baseURL, victim, victimData)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	var wr WriteResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if wr.URI != victim || wr.Op != "update" {
		t.Errorf("write response = %+v", wr)
	}
	got = queryRows(t, baseURL, query)
	if fmt.Sprint(got) != fmt.Sprint(base) {
		t.Errorf("after re-insert:\n got %v\nwant %v", got, base)
	}

	// Malformed writes are rejected without touching the corpus.
	for _, tc := range []struct {
		method, uri string
		body        []byte
		status      int
	}{
		{http.MethodPut, "", []byte("<a/>"), http.StatusBadRequest},               // missing uri
		{http.MethodPut, "doc.xml", nil, http.StatusBadRequest},                   // empty body
		{http.MethodGet, "doc.xml", nil, http.StatusMethodNotAllowed},             // reads live on /query
		{http.MethodPut, "doc.xml", []byte("<a"), http.StatusInternalServerError}, // unparsable XML
	} {
		resp := doDocument(t, tc.method, baseURL, tc.uri, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s uri=%q: status = %d, want %d", tc.method, tc.uri, resp.StatusCode, tc.status)
		}
	}

	if got := reg.Counter("serve.updates").Value(); got != 1 {
		t.Errorf("serve.updates = %d, want 1", got)
	}
	if got := reg.Counter("serve.removes").Value(); got != 1 {
		t.Errorf("serve.removes = %d, want 1", got)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// A PUT whose body does not parse is refused and leaves the document as it
// was: the next query over it still answers 200 with the old rows.
func TestMalformedPutKeepsDocument(t *testing.T) {
	w := buildMutablePaintingsWarehouse(t)
	s, err := New(Config{Backend: NewWarehouseBackend(w, 1, ec2.XL, core.WorkerOptions{}), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	baseURL := "http://" + addr
	const query = `//painting[/name{val}]`
	before := queryRows(t, baseURL, query)

	resp := doDocument(t, http.MethodPut, baseURL, "delacroix.xml", []byte("<painting><name>broken"))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("PUT of a body that does not parse answered 200")
	}
	if got := queryRows(t, baseURL, query); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Errorf("after the refused PUT:\n got %v\nwant %v", got, before)
	}
}

// A daemon over an immutable warehouse refuses writes with 501.
func TestDocumentWriteRejectedWhenImmutable(t *testing.T) {
	w := buildPaintingsWarehouse(t)
	backend := NewWarehouseBackend(w, 1, ec2.XL, core.WorkerOptions{})
	s, err := New(Config{Backend: backend, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp := doDocument(t, http.MethodPut, "http://"+addr, "doc.xml", []byte("<a/>"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("PUT on immutable daemon = %d, want 501", resp.StatusCode)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Four clients interleave queries, updates and removes against a mutable
// daemon: every request succeeds, and the write counters account every
// write.
func TestConcurrentMixedWrites(t *testing.T) {
	w := buildMutablePaintingsWarehouse(t)
	backend := NewWarehouseBackend(w, 2, ec2.XL, core.WorkerOptions{})
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: backend, Registry: reg, Limits: Limits{Workers: 4, QueueDepth: 32}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baseURL := "http://" + addr

	// 24 requests, every 3rd a write: 8 writes, of which every 4th (2) is a
	// remove.
	const requests, clients = 24, 4
	jobs := make(chan int, requests)
	for i := 1; i <= requests; i++ {
		jobs <- i
	}
	close(jobs)
	errs := make(chan error, requests)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs <- mixedRequest(baseURL, i)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := reg.Counter("serve.updates").Value(); got != 6 {
		t.Errorf("serve.updates = %d, want 6", got)
	}
	if got := reg.Counter("serve.removes").Value(); got != 2 {
		t.Errorf("serve.removes = %d, want 2", got)
	}
	shutdown(t, s)
}

// mixedRequest issues request i (from 1) of a mixed sequence over the
// paintings corpus: every 3rd request writes the next document round-robin,
// as a DELETE every 4th write and a PUT otherwise; the others are workload
// queries in turn. Any answer but 200 is an error.
func mixedRequest(baseURL string, i int) error {
	var req *http.Request
	var err error
	if i%3 == 0 {
		writes := i / 3
		docs := xmark.Paintings()
		d := docs[(writes-1)%len(docs)]
		target := baseURL + "/document?uri=" + url.QueryEscape(d.URI)
		if writes%4 == 0 {
			req, err = http.NewRequest(http.MethodDelete, target, nil)
		} else {
			req, err = http.NewRequest(http.MethodPut, target, bytes.NewReader(d.Data))
		}
	} else {
		qs := workload.Paintings()
		body, _ := json.Marshal(QueryRequest{Query: qs[i%len(qs)].Text, UseIndex: true})
		req, err = http.NewRequest(http.MethodPost, baseURL+"/query", bytes.NewReader(body))
	}
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL, resp.StatusCode, msg)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
