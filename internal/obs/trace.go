package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/meter"
)

// OpCounts is one billed operation inside a span's ledger diff, flattened
// for JSON export.
type OpCounts struct {
	Service string `json:"service"`
	Op      string `json:"op"`
	Calls   int64  `json:"calls"`
	Units   int64  `json:"units"`
	Bytes   int64  `json:"bytes"`
}

func opLess(a, b OpCounts) bool {
	if a.Service != b.Service {
		return a.Service < b.Service
	}
	return a.Op < b.Op
}

// Attr is one span annotation. Values are strings so the JSON dump is
// schema-free; numeric attributes go through SetAttrInt.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// InstSeconds is one instance type's billed busy time inside a span's
// ledger diff.
type InstSeconds struct {
	Type    string  `json:"type"`
	Seconds float64 `json:"seconds"`
}

// SpanRecord is a finished span as kept in the Tracer's journal.
type SpanRecord struct {
	ID       int64         `json:"id"`
	Parent   int64         `json:"parent"` // 0 for roots
	Name     string        `json:"name"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Err      string        `json:"err,omitempty"`
	Wall     time.Duration `json:"wall_ns"`
	Modeled  time.Duration `json:"modeled_ns"`
	Ops      []OpCounts    `json:"ops,omitempty"`
	Inst     []InstSeconds `json:"inst,omitempty"`
	InstSecs float64       `json:"instance_seconds,omitempty"`
	Egress   int64         `json:"egress_bytes,omitempty"`
}

// Attr returns the value of the named attribute ("" if absent).
func (r SpanRecord) Attr(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Calls sums the billed API calls across the span's ledger diff.
func (r SpanRecord) Calls() int64 {
	var n int64
	for _, o := range r.Ops {
		n += o.Calls
	}
	return n
}

// Tracer emits parent/child spans for the pipeline and keeps the most
// recent finished spans in a bounded ring journal. Span IDs are sequential
// (no randomness: a traced run stays deterministic). Safe for concurrent
// use; all methods are nil-safe, and a nil Tracer hands out nil Spans whose
// whole API no-ops.
type Tracer struct {
	ledger *meter.Ledger
	snaps  sync.Pool // *meter.Compact before-readings, recycled across spans

	mu     sync.Mutex
	nextID int64
	ring   []SpanRecord
	head   int // next write position
	n      int // filled entries
}

// DefaultJournalCapacity bounds the span journal when no capacity is given.
const DefaultJournalCapacity = 4096

// NewTracer returns a tracer whose spans diff the given ledger. capacity
// bounds the journal (DefaultJournalCapacity if <= 0); once full, the
// oldest spans are dropped.
func NewTracer(ledger *meter.Ledger, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Tracer{ledger: ledger, ring: make([]SpanRecord, capacity)}
}

// Span is an in-flight pipeline stage. Obtain spans from Tracer.Start or
// Span.Child; finish them with End. All methods are nil-safe.
type Span struct {
	tr      *Tracer
	id      int64
	parent  int64
	name    string
	attrs   []Attr
	err     string
	start   time.Time
	modeled time.Duration
	before  *meter.Compact

	mu    sync.Mutex
	ended bool
}

// Start begins a root span (nil on a nil tracer).
func (t *Tracer) Start(name string) *Span { return t.newSpan(name, 0) }

func (t *Tracer) newSpan(name string, parent int64) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	s := &Span{tr: t, id: id, parent: parent, name: name, start: time.Now()}
	if t.ledger != nil {
		box, _ := t.snaps.Get().(*meter.Compact)
		if box == nil {
			box = new(meter.Compact)
		}
		*box = t.ledger.CompactInto(*box)
		s.before = box
	}
	return s
}

// Child begins a span nested under s. A child of a nil span is a root span
// only if you have a tracer — here it is simply nil, keeping the no-op
// chain intact.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, s.id)
}

// ChildOf begins a child of parent, or a root span when parent is nil.
// It is the form used by code paths that may or may not have been handed
// a parent (e.g. core's sendQuery, live vs. under RunQueryOn).
func (t *Tracer) ChildOf(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	if parent == nil {
		return t.Start(name)
	}
	return parent.Child(name)
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make([]Attr, 0, 4)
	}
	s.attrs = append(s.attrs, Attr{key, value})
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// MaxAttrInt annotates the span with an integer value unless it carries a
// larger one under key already: the largest of several stages' figures.
func (s *Span) MaxAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	v := strconv.FormatInt(value, 10)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, a := range s.attrs {
		if a.Key == key {
			if old, err := strconv.ParseInt(a.Value, 10, 64); err != nil || value > old {
				s.attrs[i].Value = v
			}
			return
		}
	}
	s.attrs = append(s.attrs, Attr{key, v})
}

// SetError records an error on the span (no-op for nil error or span).
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// SetModeled sets the span's vtime-modeled duration.
func (s *Span) SetModeled(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.modeled = d
	s.mu.Unlock()
}

// AddModeled accumulates modeled time on the span (stages assembled from
// several modeled components, e.g. get + plan).
func (s *Span) AddModeled(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.modeled += d
	s.mu.Unlock()
}

// End finishes the span: the wall duration is measured, the ledger diff
// since Start is attached, and the record enters the journal. End is
// idempotent; only the first call records.
//
// Ledger diffs are exact for synchronous drivers (one span active at a
// time per ledger). When concurrent workers share a ledger, a span's diff
// includes whatever its siblings billed in the same window — still useful
// as an attribution hint, and the parent span's diff remains exact.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		Attrs:   s.attrs,
		Err:     s.err,
		Wall:    time.Since(s.start),
		Modeled: s.modeled,
	}
	s.mu.Unlock()

	t := s.tr
	if t.ledger != nil {
		ops, inst, egress := t.ledger.SubSince(*s.before)
		t.snaps.Put(s.before)
		s.before = nil
		if len(ops) > 0 {
			rec.Ops = make([]OpCounts, 0, len(ops))
			for _, d := range ops {
				rec.Ops = append(rec.Ops, OpCounts{
					Service: d.Op.Service, Op: d.Op.Name,
					Calls: d.Counts.Calls, Units: d.Counts.Units, Bytes: d.Counts.Bytes,
				})
			}
			// Insertion sort: the diff holds a handful of ops, and the
			// closure-free form keeps the hot path allocation-lean.
			for i := 1; i < len(rec.Ops); i++ {
				for j := i; j > 0 && opLess(rec.Ops[j], rec.Ops[j-1]); j-- {
					rec.Ops[j], rec.Ops[j-1] = rec.Ops[j-1], rec.Ops[j]
				}
			}
		}
		if len(inst) > 0 {
			rec.Inst = make([]InstSeconds, 0, len(inst))
			for _, ts := range inst {
				rec.Inst = append(rec.Inst, InstSeconds{Type: ts.Type, Seconds: ts.Seconds})
				rec.InstSecs += ts.Seconds
			}
		}
		rec.Egress = egress
	}

	t.mu.Lock()
	if t.n < len(t.ring) {
		t.n++
	}
	t.ring[t.head] = rec
	t.head = (t.head + 1) % len(t.ring)
	t.mu.Unlock()
}

// Spans returns the journal's finished spans, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.n)
	start := (t.head - t.n + len(t.ring)) % len(t.ring)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// QuerySpans returns the span trees whose root carries attribute "id" ==
// queryID — the roots plus all their descendants, in span-ID order. Note
// the journal holds spans in End order (children before parents), so
// selection walks in ID order: parents are always created, and therefore
// numbered, before their children.
func (t *Tracer) QuerySpans(queryID string) []SpanRecord {
	all := t.Spans()
	sort.SliceStable(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	want := make(map[int64]bool)
	var out []SpanRecord
	for _, r := range all {
		sel := false
		if r.Parent == 0 {
			sel = r.Attr("id") == queryID
		} else {
			sel = want[r.Parent]
		}
		if sel {
			want[r.ID] = true
			out = append(out, r)
		}
	}
	return out
}

// WriteJSON dumps the journal (oldest first) as a JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	spans := t.Spans()
	if spans == nil {
		spans = []SpanRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spans)
}

// FormatTree renders spans as an indented tree. Spans whose parent is not
// in the slice are treated as roots, so it works both on a full journal
// and on a QuerySpans selection.
func FormatTree(spans []SpanRecord) string {
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	present := make(map[int64]bool, len(spans))
	for _, r := range spans {
		present[r.ID] = true
	}
	children := make(map[int64][]SpanRecord)
	var roots []SpanRecord
	for _, r := range spans {
		if r.Parent != 0 && present[r.Parent] {
			children[r.Parent] = append(children[r.Parent], r)
		} else {
			roots = append(roots, r)
		}
	}
	var b strings.Builder
	var walk func(r SpanRecord, depth int)
	walk = func(r SpanRecord, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%s%s", indent, r.Name)
		var tags []string
		for _, a := range r.Attrs {
			tags = append(tags, a.Key+"="+a.Value)
		}
		if len(tags) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(tags, " "))
		}
		fmt.Fprintf(&b, "  modeled=%s wall=%s", r.Modeled.Round(time.Microsecond), r.Wall.Round(time.Microsecond))
		if calls := r.Calls(); calls > 0 {
			var units, bytes int64
			for _, o := range r.Ops {
				units += o.Units
				bytes += o.Bytes
			}
			fmt.Fprintf(&b, " billed: calls=%d units=%d bytes=%d", calls, units, bytes)
		}
		if r.Err != "" {
			fmt.Fprintf(&b, " err=%q", r.Err)
		}
		b.WriteByte('\n')
		kids := children[r.ID]
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].ID < kids[j].ID })
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
