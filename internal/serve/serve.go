package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pricing"
)

// TenantHeader carries the caller's tenant ID; absent means TenantDefault.
const TenantHeader = "X-Tenant"

// TenantDefault is the tenant requests without a header are accounted to.
const TenantDefault = "default"

// DefaultQueryTimeout bounds how long one admitted query may take end to
// end before the serving layer gives up on it.
const DefaultQueryTimeout = 30 * time.Second

// MaxDocumentBytes bounds one PUT /document body.
const MaxDocumentBytes = 16 << 20

// MaxQueryBytes bounds one POST /query body.
const MaxQueryBytes = 1 << 20

// Timeouts of the listener Start opens: how long a client may take to send
// a request's headers, and how long an idle keep-alive connection is kept.
// There is no write timeout: QueryTimeout already bounds a response.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Config assembles a Server.
type Config struct {
	// Backend runs admitted queries. Required.
	Backend Backend
	// Limits configures admission control (zero values select defaults).
	Limits Limits
	// QueryTimeout bounds one query's backend execution; 0 selects
	// DefaultQueryTimeout.
	QueryTimeout time.Duration
	// Registry receives the serve.* counters, gauges and histograms; nil
	// disables metrics.
	Registry *obs.Registry
	// Tracer receives one serve.admit span per request; nil disables spans.
	Tracer *obs.Tracer
	// Bill, when set, serves the warehouse's metered invoice at
	// /billing.json so the load harness can derive $/1M-queries.
	Bill func() pricing.Invoice
	// Ready lists extra readiness checks mounted on /readyz alongside the
	// server's own queue-accepting check.
	Ready []func() error
	// Now is the admission clock; nil selects time.Now.
	Now func() time.Time
}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	Query    string `json:"query"`
	UseIndex bool   `json:"useIndex"`
}

// ResponseRow is one result row on the wire.
type ResponseRow struct {
	URI  string   `json:"uri"`
	Cols []string `json:"cols,omitempty"`
}

// QueryResponse is the schema of the POST /query success body, as clients
// decode it. The server does not encode it: it splices the stored result
// object's members (engine.Result's tagged form) between the ID and the two
// counters (see answerBody), so an empty columns, rows or cols list arrives as
// null rather than left out — the same thing once decoded.
type QueryResponse struct {
	ID        string        `json:"id"`
	Columns   []string      `json:"columns,omitempty"`
	Rows      []ResponseRow `json:"rows,omitempty"`
	RowCount  int           `json:"rowCount"`
	ElapsedMs float64       `json:"elapsedMs"`
}

// ErrorResponse is the body of every non-2xx answer. Shed requests carry
// the machine-readable reason and the Retry-After hint in milliseconds.
type ErrorResponse struct {
	Error        string `json:"error"`
	Reason       string `json:"reason,omitempty"`
	RetryAfterMs int64  `json:"retryAfterMs,omitempty"`
}

// request is one admitted query waiting for (or on) a scheduler worker.
type request struct {
	query    string
	useIndex bool
	enqueued time.Time
	reply    chan schedResult
}

type schedResult struct {
	out *core.QueryOutcome
	err error
}

// Server is the query-serving daemon: admission control plus a bounded
// scheduler pool over a Backend, exposed as an HTTP handler.
type Server struct {
	backend Backend
	adm     *Admission
	timeout time.Duration
	reg     *obs.Registry
	tracer  *obs.Tracer
	bill    func() pricing.Invoice
	ready   []func() error

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup // admitted requests not yet answered

	queue     chan *request
	workerWG  sync.WaitGroup
	httpSrv   *http.Server
	httpErrCh chan error
}

// New builds the server and starts its scheduler pool. Callers serve
// s.Handler() themselves or use Start/Shutdown for a managed listener.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("serve: Config.Backend is required")
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = DefaultQueryTimeout
	}
	s := &Server{
		backend: cfg.Backend,
		adm:     NewAdmission(cfg.Limits, cfg.Now),
		timeout: cfg.QueryTimeout,
		reg:     cfg.Registry,
		tracer:  cfg.Tracer,
		bill:    cfg.Bill,
		ready:   cfg.Ready,
	}
	lim := s.adm.Limits()
	s.queue = make(chan *request, lim.QueueDepth)
	for i := 0; i < lim.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// Limits returns the effective admission limits.
func (s *Server) Limits() Limits { return s.adm.Limits() }

// Ready reports whether the server is accepting queries (it is the queue-
// accepting readiness check behind /readyz).
func (s *Server) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return fmt.Errorf("serve: draining")
	}
	return nil
}

// Handler returns the full HTTP surface: POST /query, PUT/DELETE /document
// when the backend accepts writes, /billing.json when configured, and the
// obs endpoints (/metrics, /metrics.json, /trace.json, /healthz, /readyz)
// as the fallback.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/document", s.handleDocument)
	if s.bill != nil {
		mux.HandleFunc("/billing.json", s.handleBilling)
	}
	ready := append([]func() error{s.Ready}, s.ready...)
	mux.Handle("/", obs.Handler(s.reg, s.tracer, ready...))
	return mux
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for rq := range s.queue {
		s.reg.Gauge("serve.queue.depth").Add(-1)
		s.reg.Histogram("serve.queue.wait").ObserveWall(time.Since(rq.enqueued))
		out, err := s.backend.Do(rq.query, rq.useIndex, s.timeout)
		rq.reply <- schedResult{out: out, err: err}
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxQueryBytes)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				ErrorResponse{Error: fmt.Sprintf("serve: query body exceeds %d bytes", MaxQueryBytes)})
			return
		}
		writeError(w, http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if _, err := core.ParseQueryText(req.Query); err != nil {
		writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = TenantDefault
	}

	span := s.tracer.Start(obs.SpanAdmit)
	span.SetAttr("tenant", tenant)
	defer span.End()
	start := time.Now()

	rq := &request{query: req.Query, useIndex: req.UseIndex, enqueued: start, reply: make(chan schedResult, 1)}

	// Admission: the draining flag, quota charge, enqueue and WaitGroup
	// increment commit atomically, so Shutdown's drain (set draining, then
	// wait) can never miss an admitted request.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.shed(w, span, http.StatusServiceUnavailable,
			&Rejection{Reason: ReasonDraining, Tenant: tenant, RetryAfter: time.Second})
		return
	}
	if rej := s.adm.Admit(tenant); rej != nil {
		s.mu.Unlock()
		s.shed(w, span, http.StatusTooManyRequests, rej)
		return
	}
	select {
	case s.queue <- rq:
		s.inflight.Add(1)
		s.mu.Unlock()
	default:
		s.adm.Refund(tenant)
		s.mu.Unlock()
		s.shed(w, span, http.StatusTooManyRequests,
			&Rejection{Reason: ReasonQueueFull, Tenant: tenant, RetryAfter: s.timeout / 4})
		return
	}

	s.reg.Counter("serve.admitted").Inc()
	s.reg.Gauge("serve.queue.depth").Add(1)
	s.reg.Gauge("serve.inflight").Set(int64(s.adm.Inflight()))

	res := <-rq.reply
	s.adm.Release(tenant)
	s.inflight.Done()
	s.reg.Gauge("serve.inflight").Set(int64(s.adm.Inflight()))

	elapsed := time.Since(start)
	s.reg.Histogram("serve.latency").ObserveWall(elapsed)

	out, err := res.out, res.err
	if err == nil {
		err = out.Err
	}
	var body []byte
	if err == nil {
		body, err = answerBody(out, elapsed)
	}
	if err != nil {
		s.reg.Counter("serve.failed").Inc()
		span.SetError(err)
		writeError(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	s.reg.Counter("serve.completed").Inc()
	span.SetAttr("query.id", out.ID)
	span.SetAttrInt("rows", int64(out.Rows))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// answerBody builds the POST /query success body (QueryResponse's schema)
// without decoding the answer: {"id":…, then the members of the stored result
// object as they are, then "rowCount" and "elapsedMs"}.
func answerBody(out *core.QueryOutcome, elapsed time.Duration) ([]byte, error) {
	obj := out.Body
	if len(obj) <= 2 || obj[0] != '{' || obj[len(obj)-1] != '}' {
		return nil, fmt.Errorf("serve: result of %s is not a result object: %.40q", out.ID, obj)
	}
	b := make([]byte, 0, len(obj)+len(out.ID)+64)
	b = append(b, `{"id":`...)
	b = appendString(b, out.ID)
	b = append(b, ',')
	b = append(b, obj[1:len(obj)-1]...)
	b = append(b, `,"rowCount":`...)
	b = strconv.AppendInt(b, int64(out.Rows), 10)
	b = append(b, `,"elapsedMs":`...)
	b = strconv.AppendFloat(b, float64(elapsed)/float64(time.Millisecond), 'f', -1, 64)
	return append(b, "}\n"...), nil
}

// appendString appends s as a JSON string. Query IDs need no escaping and
// are copied as they are; anything else goes through encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string: cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// WriteResponse is the PUT/DELETE /document success body.
type WriteResponse struct {
	URI       string  `json:"uri"`
	Op        string  `json:"op"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// handleDocument is the write surface of a mutable warehouse: PUT (or POST)
// with the document's XML as the body updates — or inserts — the document
// named by the uri query parameter; DELETE removes it. Writes run on the
// backend's dedicated write path and do not pass query admission, but they
// do respect draining so Shutdown waits for in-flight writes like it waits
// for queries.
func (s *Server) handleDocument(w http.ResponseWriter, r *http.Request) {
	wb, ok := s.backend.(WriteBackend)
	if !ok || !wb.Writable() {
		writeError(w, http.StatusNotImplemented,
			ErrorResponse{Error: "serve: document writes need a mutable corpus (start the warehouse with MutableCorpus)"})
		return
	}
	uri := r.URL.Query().Get("uri")
	if uri == "" {
		writeError(w, http.StatusBadRequest, ErrorResponse{Error: "serve: missing uri query parameter"})
		return
	}

	var op string
	switch r.Method {
	case http.MethodPut, http.MethodPost:
		op = "update"
	case http.MethodDelete:
		op = "remove"
	default:
		w.Header().Set("Allow", "PUT, POST, DELETE")
		writeError(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "PUT, POST or DELETE only"})
		return
	}
	var data []byte
	if op == "update" {
		var err error
		data, err = io.ReadAll(io.LimitReader(r.Body, MaxDocumentBytes+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrorResponse{Error: "reading body: " + err.Error()})
			return
		}
		if len(data) == 0 {
			writeError(w, http.StatusBadRequest, ErrorResponse{Error: "serve: empty document body"})
			return
		}
		if len(data) > MaxDocumentBytes {
			writeError(w, http.StatusRequestEntityTooLarge,
				ErrorResponse{Error: fmt.Sprintf("serve: document exceeds %d bytes", MaxDocumentBytes)})
			return
		}
	}

	// Same atomicity as query admission: the draining check and the
	// WaitGroup increment commit together, so a graceful Shutdown never
	// misses an accepted write.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		rej := &Rejection{Reason: ReasonDraining, RetryAfter: time.Second}
		s.reg.Counter("serve.rejected.draining").Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: rej.Error(), Reason: rej.Reason, RetryAfterMs: rej.RetryAfter.Milliseconds()})
		return
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	start := time.Now()
	var err error
	if op == "update" {
		err = wb.Update(uri, data)
	} else {
		err = wb.Remove(uri)
	}
	elapsed := time.Since(start)
	s.reg.Histogram("serve.write.latency").ObserveWall(elapsed)
	if err != nil {
		s.reg.Counter("serve.write.failed").Inc()
		writeError(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	s.reg.Counter("serve." + op + "s").Inc()
	writeJSON(w, http.StatusOK, WriteResponse{
		URI: uri, Op: op, ElapsedMs: float64(elapsed) / float64(time.Millisecond),
	})
}

// shed answers one rejected request: the reason is counted, attached to the
// admission span, and reported to the caller with a Retry-After hint —
// never silently dropped.
func (s *Server) shed(w http.ResponseWriter, span *obs.Span, status int, rej *Rejection) {
	switch rej.Reason {
	case ReasonDraining:
		s.reg.Counter("serve.rejected.draining").Inc()
	default:
		s.reg.Counter("serve.shed." + rej.Reason).Inc()
	}
	span.SetAttr("shed", rej.Reason)
	span.SetError(rej)
	secs := int64(math.Ceil(rej.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeError(w, status, ErrorResponse{
		Error:        rej.Error(),
		Reason:       rej.Reason,
		RetryAfterMs: rej.RetryAfter.Milliseconds(),
	})
}

func (s *Server) handleBilling(w http.ResponseWriter, _ *http.Request) {
	inv := s.bill()
	writeJSON(w, http.StatusOK, struct {
		Lines map[string]pricing.USD `json:"lines"`
		Total pricing.USD            `json:"total"`
	}{Lines: inv.Lines, Total: inv.Total()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, e ErrorResponse) {
	writeJSON(w, status, e)
}

// Start binds addr (use "127.0.0.1:0" for an ephemeral port) and serves
// Handler() in the background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	s.httpErrCh = make(chan error, 1)
	go func() { s.httpErrCh <- s.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown drains the server gracefully: new requests are rejected with
// 503, every already-admitted request runs to completion and is answered,
// then the scheduler pool, HTTP listener and backend stop.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	close(s.queue)
	s.workerWG.Wait()

	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
		if serveErr := <-s.httpErrCh; serveErr != nil && serveErr != http.ErrServerClosed && err == nil {
			err = serveErr
		}
	}
	if closeErr := s.backend.Close(); closeErr != nil && err == nil {
		err = closeErr
	}
	return err
}
