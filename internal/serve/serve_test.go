package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
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
}

func (f *fakeBackend) Do(query string, useIndex bool, timeout time.Duration) (*core.QueryOutcome, error) {
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

func postQuery(t *testing.T, url, tenant, query string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{Query: query, UseIndex: true})
	req, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
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

	resp := postQuery(t, url, "", validQuery(t)+strings.Repeat(" ", MaxQueryBytes))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", resp.StatusCode)
	}
	if er := decodeError(t, resp); !strings.Contains(er.Error, fmt.Sprint(MaxQueryBytes)) {
		t.Errorf("413 body %q does not name the %d-byte limit", er.Error, MaxQueryBytes)
	}
	if got := reg.Counter("serve.admitted").Value(); got != 0 {
		t.Errorf("serve.admitted = %d after a refused body, want 0", got)
	}

	resp = postQuery(t, url, "", validQuery(t))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the refusal: status %d, want 200", resp.StatusCode)
	}
	if got := reg.Counter("serve.admitted").Value(); got != 1 {
		t.Errorf("serve.admitted = %d, want 1", got)
	}
}

// Queue-full shedding is deterministic: with one worker held and the
// one-slot queue occupied, the next request must answer 429 queue_full
// with a Retry-After hint — it is never silently dropped.
func TestQueueFullSheds429(t *testing.T) {
	fb := &fakeBackend{started: make(chan struct{}, 4), release: make(chan struct{})}
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: fb, Registry: reg, Limits: Limits{Workers: 1, QueueDepth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	q := validQuery(t)

	done := make(chan int, 2)
	// First request: admitted, popped by the worker, held in Do.
	go func() {
		resp := postQuery(t, ts.URL, "", q)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-fb.started
	// Second request: admitted, parked in the queue slot.
	go func() {
		resp := postQuery(t, ts.URL, "", q)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool { return reg.Gauge("serve.queue.depth").Value() == 1 })

	// Third request: queue full, shed.
	resp := postQuery(t, ts.URL, "", q)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	}
	if er := decodeError(t, resp); er.Reason != ReasonQueueFull {
		t.Errorf("reason = %q, want %q", er.Reason, ReasonQueueFull)
	}
	if got := reg.Counter("serve.shed.queue_full").Value(); got != 1 {
		t.Errorf("serve.shed.queue_full = %d, want 1", got)
	}

	close(fb.release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("held request %d finished with %d, want 200", i, code)
		}
	}
	if got := reg.Counter("serve.admitted").Value(); got != 2 {
		t.Errorf("serve.admitted = %d, want 2", got)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// A tenant saturating its in-flight quota is isolated: its own next request
// sheds with 429 quota_inflight while another tenant sails through.
func TestTenantQuotaIsolation(t *testing.T) {
	fb := &fakeBackend{started: make(chan struct{}, 8), release: make(chan struct{})}
	reg := obs.NewRegistry()
	s, err := New(Config{Backend: fb, Registry: reg,
		Limits: Limits{Workers: 4, QueueDepth: 8, TenantInflight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	q := validQuery(t)

	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp := postQuery(t, ts.URL, "acme", q)
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		<-fb.started // both of acme's requests are held on workers
	}

	resp := postQuery(t, ts.URL, "acme", q)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("acme over quota: status = %d, want 429", resp.StatusCode)
	}
	if er := decodeError(t, resp); er.Reason != ReasonQuotaInflight {
		t.Errorf("reason = %q, want %q", er.Reason, ReasonQuotaInflight)
	}

	// Tenant B is admitted and completes while acme saturates its share.
	bDone := make(chan int, 1)
	go func() {
		resp := postQuery(t, ts.URL, "globex", q)
		resp.Body.Close()
		bDone <- resp.StatusCode
	}()
	<-fb.started
	close(fb.release)
	if code := <-bDone; code != http.StatusOK {
		t.Errorf("globex request = %d, want 200", code)
	}
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("acme request %d = %d, want 200", i, code)
		}
	}
	if got := reg.Counter("serve.shed.quota_inflight").Value(); got != 1 {
		t.Errorf("serve.shed.quota_inflight = %d, want 1", got)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Graceful shutdown drains: the in-flight query completes and is answered,
// new arrivals are rejected with 503 draining, and Shutdown returns only
// after the pool stops.
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
		resp := postQuery(t, ts.URL, "", q)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-fb.started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitFor(t, func() bool { return s.Ready() != nil })

	// New work is rejected while draining...
	resp := postQuery(t, ts.URL, "", q)
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

// The tenant map holds only buckets that differ from a fresh one, so a
// client rotating X-Tenant values cannot grow it: with quotas off no tenant
// gets a bucket, an in-flight quota drops a bucket when its last request
// ends, and a rate quota drops the buckets of quiet tenants once they have
// refilled.
func TestAdmissionForgetsIdleTenants(t *testing.T) {
	const tenants = 10000
	churn := func(a *Admission) {
		t.Helper()
		for i := 0; i < tenants; i++ {
			tenant := fmt.Sprintf("tenant-%d", i)
			if rej := a.Admit(tenant); rej != nil {
				t.Fatalf("admit %s: %v", tenant, rej)
			}
			a.Release(tenant)
		}
	}

	off := newAdmission(Limits{Workers: 1}, clock.Wall{})
	churn(off)
	if n := len(off.tenants); n != 0 {
		t.Errorf("quotas off: %d buckets, want none", n)
	}
	if got := off.Inflight(); got != 0 {
		t.Errorf("quotas off: inflight = %d after every release, want 0", got)
	}

	inflight := newAdmission(Limits{Workers: 1, TenantInflight: 2}, clock.Wall{})
	churn(inflight)
	if n := len(inflight.tenants); n != 0 {
		t.Errorf("in-flight quota: %d buckets with nothing in flight, want none", n)
	}

	clk := clock.NewStepped(time.Unix(1000, 0))
	rate := newAdmission(Limits{Workers: 1, TenantQPS: 2, TenantBurst: 2}, clk)
	churn(rate)
	if n := len(rate.tenants); n != tenants {
		t.Fatalf("rate quota: %d buckets, want %d partly spent ones", n, tenants)
	}
	clk.Advance(time.Second) // refills every bucket to the burst
	if rej := rate.Admit("next"); rej != nil {
		t.Fatal(rej)
	}
	if n := len(rate.tenants); n != 1 {
		t.Errorf("rate quota: %d buckets after the others refilled, want only the new tenant's", n)
	}
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
