// Package serve implements the query-serving daemon: an HTTP/JSON API over
// the warehouse's frontend/processor pipeline, with one bound in front of it.
//
// One query, all on its handler's goroutine:
//
//	POST /query -> admitted, unless draining (503) or Workers+QueueDepth
//	               queries are already admitted (429 queue_full)
//	            -> waits, in arrival order, for one of Workers slots;
//	               a client that leaves meanwhile never reaches the backend
//	            -> Backend.Do (live query processors via core.Frontend)
//	            -> JSON response, its ends built in the slot's buffer
//
// Shedding is always explicit: a rejected request gets a 429 (503 while
// draining) with a machine-readable reason and a Retry-After hint, and is
// counted in the serve.* metrics — requests are never dropped silently.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
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

// TenantHeader carries the caller's tenant ID, which the serve.admit span
// records; absent means TenantDefault. The client chooses it, so it bounds
// nothing.
const TenantHeader = "X-Tenant"

// TenantDefault is the tenant recorded for requests without a header.
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

// readBodyTimeout bounds how long a request may take to deliver its body,
// counted from when its handler starts to read it: a MaxDocumentBytes
// document at about half a megabyte a second. A client that trickles a body
// is cut off then, and its handler and connection go with it.
const readBodyTimeout = 30 * time.Second

// Config assembles a Server.
type Config struct {
	// Backend runs admitted queries. Required.
	Backend Backend
	// Limits bounds the queries run and waiting (zero values select
	// defaults).
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
	// /billing.json: what the queries and writes served so far have cost.
	Bill func() pricing.Invoice
	// Ready lists extra readiness checks mounted on /readyz alongside the
	// server's own queue-accepting check.
	Ready []func() error
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
// counters (see writeAnswer), so an empty columns, rows or cols list arrives as
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

// Server is the query-serving daemon: a Backend behind one admission bound,
// exposed as an HTTP handler.
type Server struct {
	backend Backend
	limits  Limits
	timeout time.Duration
	// bodyTimeout is readBodyTimeout; tests shorten it.
	bodyTimeout time.Duration
	reg         *obs.Registry
	tracer      *obs.Tracer
	bill        func() pricing.Invoice
	ready       []func() error

	// slots holds the answer buffer of each of the limits.Workers slots no
	// query holds: a query takes one to call the backend and write its
	// answer, and puts it back.
	slots chan []byte

	mu       sync.Mutex
	draining bool
	admitted int            // queries admitted and not yet released
	inflight sync.WaitGroup // admitted queries and accepted writes not yet answered
	// fresh holds Start's connections yet to send a request header, until
	// Shutdown closes them and sets it nil.
	fresh map[net.Conn]struct{}

	httpSrv   *http.Server
	httpErrCh chan error
}

// New builds the server; it starts no goroutine. Callers serve s.Handler()
// themselves or use Start/Shutdown for a managed listener.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("serve: Config.Backend is required")
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = DefaultQueryTimeout
	}
	lim := cfg.Limits.withDefaults()
	s := &Server{
		backend:     cfg.Backend,
		limits:      lim,
		slots:       make(chan []byte, lim.Workers),
		timeout:     cfg.QueryTimeout,
		bodyTimeout: readBodyTimeout,
		reg:         cfg.Registry,
		tracer:      cfg.Tracer,
		bill:        cfg.Bill,
		ready:       cfg.Ready,
	}
	for range lim.Workers {
		s.slots <- nil
	}
	return s, nil
}

// Limits returns the effective (default-resolved) limits.
func (s *Server) Limits() Limits { return s.limits }

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
// obs endpoints (/metrics, /trace.json, /healthz, /readyz)
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

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	var req QueryRequest
	data, err := s.readBody(w, r, MaxQueryBytes)
	if err == nil && len(data) > MaxQueryBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			ErrorResponse{Error: fmt.Sprintf("serve: query body exceeds %d bytes", MaxQueryBytes)})
		return
	}
	if err == nil {
		err = json.NewDecoder(bytes.NewReader(data)).Decode(&req)
	}
	if err != nil {
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

	if rej := s.admit(tenant); rej != nil {
		s.shed(w, span, rej)
		return
	}
	s.reg.Counter("serve.admitted").Inc()
	buf, ok := s.awaitSlot(r.Context())
	if !ok {
		// The client is gone: nothing to answer, and nothing to bill.
		s.release()
		s.reg.Counter("serve.cancelled").Inc()
		span.SetError(r.Context().Err())
		return
	}
	defer func() { s.slots <- buf }()
	s.reg.Histogram("serve.queue.wait").ObserveWall(time.Since(start))
	out, err := s.backend.Do(req.Query, req.UseIndex, s.timeout)
	s.release()

	elapsed := time.Since(start)
	s.reg.Histogram("serve.latency").ObserveWall(elapsed)

	if err == nil {
		err = out.Err
	}
	if err == nil {
		err = checkResultObject(out)
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
	// The slot is held until the answer is written, so a client that stops
	// reading it holds the slot for QueryTimeout at most.
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Now().Add(s.timeout))
	buf = writeAnswer(w, buf, out, elapsed)
	_ = rc.SetWriteDeadline(time.Time{})
}

// readBody reads r's body, up to limit bytes and one more to tell a longer
// one, and gives it s.bodyTimeout from now to arrive: a client that
// trickles a body cannot hold a handler and a connection for as long as it
// likes. The deadline is lifted only once the body is read to its end.
// Until then the server reads the rest itself before it answers, and that
// read must hit the deadline too, which ends in closing the connection. A
// lifted deadline also keeps the read the server goes on with in the
// background while the handler runs from timing out, which would cancel
// the request's context.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	// A ResponseWriter without a connection (a test's recorder) takes no
	// deadline and has no client to wait for.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(s.bodyTimeout))
	data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err == nil && int64(len(data)) <= limit {
		_ = rc.SetReadDeadline(time.Time{})
	}
	return data, err
}

// checkResultObject fails unless out.Body is a JSON object with members, as
// the stored result object of a query is.
func checkResultObject(out *core.QueryOutcome) error {
	if obj := out.Body; len(obj) <= 2 || obj[0] != '{' || obj[len(obj)-1] != '}' {
		return fmt.Errorf("serve: result of %s is not a result object: %.40q", out.ID, obj)
	}
	return nil
}

// writeAnswer writes the POST /query success body (QueryResponse's schema)
// without decoding the answer or copying it: {"id":…, then the members of
// the stored result object as they are, straight from the file store's
// memory, then "rowCount" and "elapsedMs"}. The two ends are built in buf,
// the slot's, so that the body takes no memory of its own; it returns buf
// grown to them. out has passed checkResultObject.
func writeAnswer(w http.ResponseWriter, buf []byte, out *core.QueryOutcome, elapsed time.Duration) []byte {
	members := out.Body[1 : len(out.Body)-1]
	b := append(buf[:0], `{"id":`...)
	b = appendString(b, out.ID)
	b = append(b, ',')
	head := len(b)
	b = append(b, `,"rowCount":`...)
	b = strconv.AppendInt(b, int64(out.Rows), 10)
	b = append(b, `,"elapsedMs":`...)
	b = strconv.AppendFloat(b, float64(elapsed)/float64(time.Millisecond), 'f', -1, 64)
	b = append(b, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)+len(members)))
	w.WriteHeader(http.StatusOK)
	// A client gone mid-body is the connection's to notice.
	_, _ = w.Write(b[:head])
	_, _ = w.Write(members)
	_, _ = w.Write(b[head:])
	return b
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
		data, err = s.readBody(w, r, MaxDocumentBytes)
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
		s.shed(w, nil, &Rejection{Reason: ReasonDraining, RetryAfter: time.Second})
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

// shed answers one rejected request: 503 while draining, else 429. The
// reason is counted, attached to the admission span (if any) and reported
// to the caller with a Retry-After hint — never silently dropped.
func (s *Server) shed(w http.ResponseWriter, span *obs.Span, rej *Rejection) {
	status := http.StatusTooManyRequests
	switch rej.Reason {
	case ReasonDraining:
		status = http.StatusServiceUnavailable
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
	s.fresh = make(map[net.Conn]struct{})
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout,
		ConnState: s.trackFresh}
	s.httpErrCh = make(chan error, 1)
	go func() { s.httpErrCh <- s.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// trackFresh is Start's ConnState hook; once fresh is nil it closes new ones.
func (s *Server) trackFresh(c net.Conn, state http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case state != http.StateNew:
		delete(s.fresh, c)
	case s.fresh == nil:
		c.Close()
	default:
		s.fresh[c] = struct{}{}
	}
}

// Shutdown drains the server gracefully: new requests are rejected with
// 503, every already-admitted request runs to completion and is answered,
// then the HTTP listener and backend stop. A client of
// Start's listener that has sent no request header once they are answered
// sees its connection closed unanswered, instead of holding Shutdown 5 s.
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

	var err error
	if s.httpSrv != nil {
		s.mu.Lock()
		for c := range s.fresh {
			c.Close()
		}
		s.fresh = nil
		s.mu.Unlock()
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
