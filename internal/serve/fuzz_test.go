package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// outcomeBackend answers every query with the outcome the test put in out
// (fakeBackend's is fixed).
type outcomeBackend struct{ out *core.QueryOutcome }

func (b *outcomeBackend) Do(string, bool, time.Duration) (*core.QueryOutcome, error) {
	return b.out, nil
}

func (b *outcomeBackend) Close() error { return nil }

// fuzzServer starts a server over b for the length of the fuzz target.
func fuzzServer(f *testing.F, b Backend) *Server {
	s, err := New(Config{Backend: b, Limits: Limits{Workers: 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

// serveQuery answers one POST /query with body through the full handler.
func serveQuery(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	return rec
}

// resultBytes reads a result out of fuzz bytes, so the fuzzer's mutations
// reach every shape the stored object can take.
type resultBytes []byte

func (p *resultBytes) next() byte {
	if len(*p) == 0 {
		return 0
	}
	c := (*p)[0]
	*p = (*p)[1:]
	return c
}

// str takes a string of up to 23 raw bytes: quotes, <>&, U+2028/2029 and
// invalid UTF-8 all reach the encoder as the fuzzer wrote them.
func (p *resultBytes) str() string {
	n := min(int(p.next())%24, len(*p))
	s := string((*p)[:n])
	*p = (*p)[n:]
	return s
}

// strs takes a nil, an empty or a one-to-four-element list.
func (p *resultBytes) strs() []string {
	switch p.next() % 3 {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, int(p.next())%4+1)
	for i := range out {
		out[i] = p.str()
	}
	return out
}

// result takes nil, empty or one to four columns, then nil, empty or one to
// six rows.
func (p *resultBytes) result() *engine.Result {
	res := &engine.Result{Columns: p.strs()}
	switch p.next() % 3 {
	case 0:
	case 1:
		res.Rows = []engine.Row{}
	default:
		res.Rows = make([]engine.Row, int(p.next())%6+1)
		for i := range res.Rows {
			res.Rows[i] = engine.Row{URI: p.str(), Cols: p.strs()}
		}
	}
	return res
}

// untaggedResult is engine.Result as it was stored before it had JSON tags.
type untaggedResult struct {
	Columns []string
	Rows    []untaggedRow
}

type untaggedRow struct {
	URI  string
	Cols []string
}

func untagged(res *engine.Result) untaggedResult {
	u := untaggedResult{Columns: res.Columns}
	if res.Rows != nil {
		u.Rows = make([]untaggedRow, len(res.Rows))
	}
	for i, row := range res.Rows {
		u.Rows[i] = untaggedRow(row)
	}
	return u
}

// normalise makes an empty list and an absent one the same answer, and
// drops the clock.
func normalise(r *QueryResponse) {
	r.ElapsedMs = 0
	if len(r.Columns) == 0 {
		r.Columns = nil
	}
	if len(r.Rows) == 0 {
		r.Rows = nil
	}
	for i := range r.Rows {
		if len(r.Rows[i].Cols) == 0 {
			r.Rows[i].Cols = nil
		}
	}
}

// FuzzResultWire holds the one result encoding from processor to socket.
// For a random engine.Result and query ID:
//   - the stored object (what the processor puts at step 14) is exactly as
//     long as the untagged encoding the parent stored, so the S3 bytes,
//     egress and bill cannot have moved;
//   - the POST /query body carries the stored object's members byte for
//     byte, with a Content-Length to match;
//   - the body decodes to the QueryResponse of the old path — decode the
//     stored object, copy its rows into ResponseRows, encode the copy — up
//     to nil versus empty lists.
//
// The seeds in testdata build results with empty lists, <>& and quotes,
// U+2028/2029 and invalid UTF-8.
func FuzzResultWire(f *testing.F) {
	f.Add([]byte{})
	b := &outcomeBackend{}
	h := fuzzServer(f, b).Handler()
	query, _ := json.Marshal(QueryRequest{Query: "//a"})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := resultBytes(data)
		id := p.str()
		res := p.result()

		stored, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		parent, err := json.Marshal(untagged(res))
		if err != nil {
			t.Fatal(err)
		}
		if len(stored) != len(parent) {
			t.Fatalf("stored object is %d bytes, the untagged encoding %d:\n%s\n%s", len(stored), len(parent), stored, parent)
		}

		var twin untaggedResult
		if err := json.Unmarshal(parent, &twin); err != nil {
			t.Fatalf("stored object %q does not decode: %v", parent, err)
		}
		old := QueryResponse{ID: id, Columns: twin.Columns, RowCount: len(twin.Rows)}
		for _, row := range twin.Rows {
			old.Rows = append(old.Rows, ResponseRow{URI: row.URI, Cols: row.Cols})
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(old); err != nil {
			t.Fatal(err)
		}
		var want QueryResponse
		if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
			t.Fatal(err)
		}

		b.out = &core.QueryOutcome{ID: id, Body: stored, Rows: len(res.Rows)}
		rec := serveQuery(h, query)
		body := rec.Body.Bytes()
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, body)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("Content-Length %s for a %d-byte body", cl, len(body))
		}
		if !bytes.Contains(body, stored[1:len(stored)-1]) {
			t.Errorf("body does not carry the stored object's members:\n%s\n%s", body, stored)
		}
		var got QueryResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("body %q does not decode: %v", body, err)
		}
		if got.ElapsedMs < 0 {
			t.Errorf("elapsedMs %v", got.ElapsedMs)
		}
		normalise(&got)
		normalise(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("served answer differs from the old path's:\n got %+v\nwant %+v", got, want)
		}
	})
}

// FuzzQueryRequest: whatever the body of a POST /query, the server answers
// 200 (a query that parses), 400 (a body or query that does not) or 413 (a
// body over MaxQueryBytes), and never panics. More seeds are in testdata.
func FuzzQueryRequest(f *testing.F) {
	f.Add([]byte(`{"query":"//a"} trailing`))
	f.Add([]byte(`[`))
	f.Add([]byte{})
	h := fuzzServer(f, &fakeBackend{}).Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := serveQuery(h, data)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("body %q: status %d: %s", data, rec.Code, rec.Body.Bytes())
		}
		var v any
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("body %q: status %d with a reply that is not JSON: %v", data, rec.Code, err)
		}
	})
}
