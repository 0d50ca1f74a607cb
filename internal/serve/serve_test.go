package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/workload"
	"repro/internal/xmark"
)

// fakeBackend lets tests hold queries in-flight deterministically: Do
// signals on started (if set) and then blocks until release is closed or
// receives.
type fakeBackend struct {
	started chan struct{}
	release chan struct{}
	// calls counts the calls of Do, running those under way and peak the
	// most that were ever under way at once.
	calls, running, peak atomic.Int32
}

func (f *fakeBackend) Do(query string, useIndex bool, timeout time.Duration) (*core.QueryOutcome, error) {
	f.calls.Add(1)
	n := f.running.Add(1)
	defer f.running.Add(-1)
	for p := f.peak.Load(); n > p && !f.peak.CompareAndSwap(p, n); p = f.peak.Load() {
	}
	if f.started != nil {
		f.started <- struct{}{}
	}
	if f.release != nil {
		<-f.release
	}
	body, err := json.Marshal(&engine.Result{
		Columns: []string{"c"},
		Rows:    []engine.Row{{URI: "doc", Cols: []string{"v"}}},
	})
	return &core.QueryOutcome{ID: "q-fake", Body: body, Rows: 1}, err
}

func (f *fakeBackend) Close() error { return nil }

func validQuery(t *testing.T) string {
	t.Helper()
	q := workload.XMark()[0].Text
	if _, err := core.ParseQueryText(q); err != nil {
		t.Fatalf("workload query does not parse: %v", err)
	}
	return q
}

// client is the HTTP client of postQuery: a query a bug leaves unanswered
// fails its test within a minute instead of hanging the suite.
var client = &http.Client{Timeout: time.Minute}

func postQuery(t *testing.T, url, query string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{Query: query, UseIndex: true})
	resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeError(t *testing.T, resp *http.Response) ErrorResponse {
	t.Helper()
	defer resp.Body.Close()
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	return er
}

// A /query body over MaxQueryBytes is refused with 413 before anything is
// admitted, and the server goes on answering.
func TestOversizeQueryBodyIs413(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: &fakeBackend{}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	url := "http://" + addr
	if s.httpSrv.ReadHeaderTimeout <= 0 || s.httpSrv.IdleTimeout <= 0 {
		t.Errorf("listener timeouts unset: read header %v, idle %v", s.httpSrv.ReadHeaderTimeout, s.httpSrv.IdleTimeout)
	}

	resp := postQuery(t, url, validQuery(t)+strings.Repeat(" ", MaxQueryBytes))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", resp.StatusCode)
	}
	if er := decodeError(t, resp); !strings.Contains(er.Error, fmt.Sprint(MaxQueryBytes)) {
		t.Errorf("413 body %q does not name the %d-byte limit", er.Error, MaxQueryBytes)
	}
	if got := reg.Counter("serve.admitted").Value(); got != 0 {
		t.Errorf("serve.admitted = %d after a refused body, want 0", got)
	}

	resp = postQuery(t, url, validQuery(t))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the refusal: status %d, want 200", resp.StatusCode)
	}
	if got := reg.Counter("serve.admitted").Value(); got != 1 {
		t.Errorf("serve.admitted = %d, want 1", got)
	}
}

// The bound is Workers+QueueDepth admitted queries, Workers of them in the
// backend at once: with two slots and three places to wait, five queries are
// admitted and answered, no more than two run together, and the ones beyond
// the bound answer 429 queue_full with a Retry-After hint, never dropped
// silently. The server starts no goroutine of its own: once it has shut
// down, the goroutine count is back to where it was before New.
func TestQueueFullSheds429(t *testing.T) {
	before := runtime.NumGoroutine()
	fb := &fakeBackend{started: make(chan struct{}, 8), release: make(chan struct{})}
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: fb, Registry: reg, Limits: Limits{Workers: 2, QueueDepth: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	q := validQuery(t)

	const admitted, shed = 5, 2
	done := make(chan int, admitted)
	post := func() {
		go func() {
			resp := postQuery(t, ts.URL, q)
			resp.Body.Close()
			done <- resp.StatusCode
		}()
	}
	// Two queries take both slots and are held in Do; three wait for one.
	post()
	post()
	<-fb.started
	<-fb.started
	post()
	post()
	post()
	waitFor(t, func() bool { return reg.Gauge("serve.queue.depth").Value() == 3 })

	for i := 0; i < shed; i++ {
		resp := postQuery(t, ts.URL, q)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("query beyond the bound: status = %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Error("429 missing Retry-After header")
		}
		if er := decodeError(t, resp); er.Reason != ReasonQueueFull {
			t.Errorf("reason = %q, want %q", er.Reason, ReasonQueueFull)
		}
	}
	if got := reg.Counter("serve.shed.queue_full").Value(); got != shed {
		t.Errorf("serve.shed.queue_full = %d, want %d", got, shed)
	}
	if got := reg.Gauge("serve.inflight").Value(); got != admitted {
		t.Errorf("serve.inflight = %d, want %d", got, admitted)
	}

	close(fb.release)
	for i := 0; i < admitted; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("admitted query %d finished with %d, want 200", i, code)
		}
	}
	if got := reg.Counter("serve.admitted").Value(); got != admitted {
		t.Errorf("serve.admitted = %d, want %d", got, admitted)
	}
	if calls, peak := fb.calls.Load(), fb.peak.Load(); calls != admitted || peak != 2 {
		t.Errorf("Do ran %d times, at most %d at once; want %d times, at most 2", calls, peak, admitted)
	}
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	client.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Shutdown, %d before New", n, before)
	}
}

// A client that leaves while its query waits for a slot costs the backend
// nothing: Do is never called for it, its admission is given back, it is
// counted in serve.cancelled rather than as shed, and the drain does not
// wait for it.
func TestClientLeavesWhileQueued(t *testing.T) {
	fb := &fakeBackend{started: make(chan struct{}, 2), release: make(chan struct{})}
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: fb, Registry: reg, Limits: Limits{Workers: 1, QueueDepth: 2}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr
	q := validQuery(t)

	held := make(chan int, 1)
	go func() {
		resp := postQuery(t, url, q)
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	<-fb.started // the first query holds the only slot

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(QueryRequest{Query: q, UseIndex: true})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	left := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		left <- err
	}()
	waitFor(t, func() bool { return reg.Gauge("serve.queue.depth").Value() == 1 })
	cancel()
	if err := <-left; err == nil {
		t.Error("the cancelled request was answered")
	}
	waitFor(t, func() bool { return reg.Counter("serve.cancelled").Value() == 1 })
	if got := reg.Gauge("serve.queue.depth").Value(); got != 0 {
		t.Errorf("serve.queue.depth = %d after the client left, want 0", got)
	}

	close(fb.release)
	if code := <-held; code != http.StatusOK {
		t.Errorf("held query finished with %d, want 200", code)
	}
	if n := fb.calls.Load(); n != 1 {
		t.Errorf("Do ran %d times, want once", n)
	}
	if got := reg.Gauge("serve.inflight").Value(); got != 0 {
		t.Errorf("serve.inflight = %d, want 0", got)
	}
	if got := reg.Counter("serve.shed.queue_full").Value(); got != 0 {
		t.Errorf("serve.shed.queue_full = %d, want 0: a client that left is not shed", got)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	start := time.Now()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Shutdown took %v, want under 1s", d)
	}
}

// Graceful shutdown drains: the in-flight query completes and is answered,
// new arrivals are rejected with 503 draining, and Shutdown returns only
// after the query is answered.
func TestGracefulDrain(t *testing.T) {
	fb := &fakeBackend{started: make(chan struct{}, 1), release: make(chan struct{})}
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: fb, Registry: reg, Limits: Limits{Workers: 1, QueueDepth: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	q := validQuery(t)

	inflight := make(chan int, 1)
	go func() {
		resp := postQuery(t, ts.URL, q)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-fb.started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitFor(t, func() bool { return s.Ready() != nil })

	// New work is rejected while draining...
	resp := postQuery(t, ts.URL, q)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain = %d, want 503", resp.StatusCode)
	}
	if er := decodeError(t, resp); er.Reason != ReasonDraining {
		t.Errorf("reason = %q, want %q", er.Reason, ReasonDraining)
	}
	if got := reg.Counter("serve.rejected.draining").Value(); got != 1 {
		t.Errorf("serve.rejected.draining = %d, want 1", got)
	}
	// ...and /readyz reports not ready while /healthz stays up.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", hr.StatusCode)
	}
	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", rr.StatusCode)
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) before the in-flight query finished", err)
	default:
	}
	close(fb.release)
	if code := <-inflight; code != http.StatusOK {
		t.Errorf("in-flight request = %d, want 200 after drain", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := reg.Counter("serve.completed").Value(); got != 1 {
		t.Errorf("serve.completed = %d, want 1", got)
	}
}

// buildPaintingsWarehouse loads and indexes the paintings corpus.
func buildPaintingsWarehouse(t *testing.T) *core.Warehouse {
	t.Helper()
	w, err := core.New(core.Config{Strategy: index.TwoLUPI})
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

// canonical renders a result in the wire shape, so the served answer and
// the one-shot answer can be compared byte for byte.
func canonical(t *testing.T, columns []string, rows []ResponseRow) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Columns []string      `json:"columns"`
		Rows    []ResponseRow `json:"rows"`
	}{columns, rows})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// End to end over the live pipeline: a concurrent seeded closed-loop run
// against `serve` answers byte-identically to the one-shot RunQueryOn path
// for every query, with zero transport errors.
func TestServeEndToEndMatchesOneShot(t *testing.T) {
	w := buildPaintingsWarehouse(t)
	queries := workload.Paintings()

	// Reference answers via the one-shot path, before the serving frontend
	// owns the response queue.
	want := map[string][]byte{}
	for _, q := range queries {
		in := ec2.Launch(w.Ledger(), ec2.Large)
		res, _, err := w.RunQueryOn(in, q.Text, true)
		if err != nil {
			t.Fatalf("one-shot %s: %v", q.Name, err)
		}
		var rows []ResponseRow
		for _, r := range res.Rows {
			rows = append(rows, ResponseRow{URI: r.URI, Cols: r.Cols})
		}
		want[q.Name] = canonical(t, res.Columns, rows)
	}

	backend := NewWarehouseBackend(w, 4, ec2.XL, core.WorkerOptions{})
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: backend, Registry: reg, Limits: Limits{Workers: 4, QueueDepth: 16}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baseURL := "http://" + addr
	waitReady(t, baseURL)

	// Every query, several times, concurrently.
	type answer struct {
		name string
		body []byte
		err  error
	}
	const rounds = 3
	results := make(chan answer, rounds*len(queries))
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q workload.Query) {
				defer wg.Done()
				body, _ := json.Marshal(QueryRequest{Query: q.Text, UseIndex: true})
				resp, err := http.Post(baseURL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					results <- answer{name: q.Name, err: err}
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					results <- answer{name: q.Name, err: fmt.Errorf("status %d", resp.StatusCode)}
					return
				}
				var qr QueryResponse
				if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
					results <- answer{name: q.Name, err: err}
					return
				}
				results <- answer{name: q.Name, body: canonical(t, qr.Columns, qr.Rows)}
			}(q)
		}
	}
	wg.Wait()
	close(results)
	for a := range results {
		if a.err != nil {
			t.Errorf("%s: transport error: %v", a.name, a.err)
			continue
		}
		if !bytes.Equal(a.body, want[a.name]) {
			t.Errorf("%s: served answer differs from one-shot path\n served: %s\n  want: %s",
				a.name, a.body, want[a.name])
		}
	}

	if got := reg.Counter("serve.admitted").Value(); got != rounds*int64(len(queries)) {
		t.Errorf("serve.admitted = %d, want %d", got, rounds*len(queries))
	}
	if err := checkServeMetrics(baseURL); err != nil {
		t.Errorf("metrics check: %v", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// The billing endpoint serves the metered invoice, and Limits reports the
// effective (defaulted) admission config.
func TestBillingEndpointRoundTrip(t *testing.T) {
	srv, err := New(Config{
		Backend: &fakeBackend{},
		Limits:  Limits{Workers: 2, QueueDepth: 4},
		Bill: func() pricing.Invoice {
			return pricing.Invoice{Lines: map[string]pricing.USD{"s3": 1.25, "sqs": 0.25}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv)

	lim := srv.Limits()
	if lim.Workers != 2 || lim.QueueDepth != 4 {
		t.Fatalf("Limits = %+v", lim)
	}
	resp, err := http.Get("http://" + addr + "/billing.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Total float64 `json:"total"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || doc.Total != 1.5 {
		t.Fatalf("billing = %d %+v %v, want 200 and total 1.5", resp.StatusCode, doc, err)
	}

	// A daemon without a Bill hook simply has no /billing.json.
	noBill, err := New(Config{Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := noBill.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, noBill)
	resp, err = http.Get("http://" + addr2 + "/billing.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("expected no billing endpoint without a Bill hook")
	}
}

// A client that connects and never sends a request does not hold the
// drain: Shutdown closes its connection, with no response, instead of
// waiting out net/http's five-second grace for a new connection.
func TestShutdownClosesSilentConnection(t *testing.T) {
	s, err := New(Config{Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// A request on a later connection is answered only after the server
	// has accepted the silent one: it accepts in arrival order.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Shutdown took %v with one silent connection open, want under 1s", d)
	}
	_ = silent.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := silent.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("silent client read (%d, %v), want its connection closed", n, err)
	}
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// waitReady polls the daemon's /readyz until it answers 200, failing the
// test after five seconds.
func waitReady(t *testing.T, baseURL string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s/readyz not ready after 5s", baseURL)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// checkServeMetrics scrapes /metrics and asserts the serving counters are
// live: the exposition parses and xwh_serve_admitted_total is non-zero, so
// traffic really flowed through admission control.
func checkServeMetrics(baseURL string) error {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		return err
	}
	for _, s := range samples {
		if s.Name == "xwh_serve_admitted_total" && s.Value > 0 {
			return nil
		}
	}
	return fmt.Errorf("xwh_serve_admitted_total missing or zero in /metrics")
}

// waitFor polls cond briefly; it fails the test on timeout.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// bigBackend answers every query with one row of a 24 MB column, more than
// a loopback connection buffers for a client that does not read.
type bigBackend struct{ calls atomic.Int32 }

var bigBody = []byte(`{"columns":["c"],"rows":[{"uri":"doc","cols":["` + strings.Repeat("x", 24<<20) + `"]}]}`)

func (b *bigBackend) Do(string, bool, time.Duration) (*core.QueryOutcome, error) {
	b.calls.Add(1)
	return &core.QueryOutcome{ID: "q-big", Body: bigBody, Rows: 1}, nil
}

func (b *bigBackend) Close() error { return nil }

// A query holds its slot until its answer is written, so a client that
// stops reading holds it for QueryTimeout at most: with one slot, a query
// behind such a client is answered once the stalled write times out.
func TestStalledReaderFreesSlot(t *testing.T) {
	fb := &bigBackend{}
	s, err := New(Config{Backend: fb, Registry: obs.NewRegistry(), QueryTimeout: 200 * time.Millisecond, Limits: Limits{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body, _ := json.Marshal(QueryRequest{Query: validQuery(t), UseIndex: true})
	fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: serve\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	waitFor(t, func() bool { return fb.calls.Load() == 1 })

	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("the query behind a stalled reader: %v", err)
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || n < int64(len(bigBody)) {
		t.Fatalf("the query behind a stalled reader: status %d, %d bytes, %v", resp.StatusCode, n, err)
	}
}
