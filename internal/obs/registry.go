// Package obs is the warehouse's unified observability layer: one metrics
// Registry (counters, gauges, fixed-bucket latency histograms) and one span
// Tracer for the Figure 1 pipeline, with Prometheus-text and JSON export.
//
// The paper's whole argument (Sections 7-8) is an attribution exercise —
// which pipeline stage burns the time, which service call costs the money —
// and this package makes that attribution a first-class runtime artifact
// instead of a pile of ad-hoc stats structs. Three design rules:
//
//   - Deterministic and side-effect-free: instrumentation never issues a
//     service request, never draws from a seeded PRNG, and never perturbs
//     modeled time — with obs enabled, ledger totals, store dumps and query
//     results are byte-identical to a run without it (the differential
//     tests in internal/core assert this).
//   - Two clocks: histograms and spans record both real wall-clock time
//     (what the host machine did) and vtime-modeled time (what the
//     simulated cloud billed). Modeled quantities are seed-stable; wall
//     quantities obviously are not, and nothing downstream depends on them.
//   - Cost-annotated spans: each span carries the meter.Ledger diff (billed
//     calls, units, bytes, instance-seconds, egress) incurred underneath
//     it, so a span tree is simultaneously a latency profile and a bill.
//
// Every metric accessor and every Span method is nil-receiver safe, so
// instrumented code needs no "is obs enabled" branches: a nil Tracer hands
// out nil Spans and the whole span API degrades to no-ops.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry. All methods are nil-safe.
type Counter struct {
	v  atomic.Int64
	fn func() int64 // set by Registry.CounterFunc: the value lives elsewhere
}

// Add increments the counter by delta (no-op on nil).
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. All methods are nil-safe.
type Gauge struct {
	v  atomic.Int64
	fn func() int64 // set by Registry.GaugeFunc: the value lives elsewhere
}

// Set replaces the gauge value (no-op on nil).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add shifts the gauge by delta (no-op on nil).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (zero on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return g.v.Load()
}

// DefaultLatencyBuckets are the fixed histogram bucket upper bounds used
// when a histogram is created without explicit buckets. They span queue
// round trips (sub-millisecond) to full-corpus indexing phases (minutes).
var DefaultLatencyBuckets = []time.Duration{
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
	time.Minute,
	5 * time.Minute,
}

// histSide is one clock's view of a histogram: per-bucket counts (the last
// slot is the +Inf overflow), total count and total sum.
type histSide struct {
	counts []int64
	count  int64
	sum    time.Duration
}

func (h *histSide) observe(bounds []time.Duration, d time.Duration) {
	i := sort.Search(len(bounds), func(i int) bool { return d <= bounds[i] })
	h.counts[i]++
	h.count++
	h.sum += d
}

// HistSnapshot is an immutable view of one clock side of a histogram.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has len(Bounds)+1 slots,
	// the last being the +Inf overflow bucket.
	Bounds []time.Duration
	Counts []int64
	Count  int64
	Sum    time.Duration
}

// Mean returns Sum/Count, or zero for an empty histogram.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the bucket bound under which at least q of the observations fall. The
// overflow bucket reports the largest finite bound.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Histogram is a fixed-bucket latency histogram with two independent clock
// sides: wall (real elapsed time) and modeled (vtime durations from the
// simulated cloud). Safe for concurrent use; all methods are nil-safe.
type Histogram struct {
	bounds []time.Duration

	mu      sync.Mutex
	wall    histSide
	modeled histSide
}

func newHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := make([]time.Duration, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{
		bounds:  b,
		wall:    histSide{counts: make([]int64, len(b)+1)},
		modeled: histSide{counts: make([]int64, len(b)+1)},
	}
}

// Observe records one event on both clock sides.
func (h *Histogram) Observe(wall, modeled time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.wall.observe(h.bounds, wall)
	h.modeled.observe(h.bounds, modeled)
	h.mu.Unlock()
}

// ObserveWall records one event on the wall side only.
func (h *Histogram) ObserveWall(wall time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.wall.observe(h.bounds, wall)
	h.mu.Unlock()
}

// ObserveModeled records one event on the modeled side only (used by call
// sites whose real time is not separately measurable, e.g. pro-rata upload
// shares of a coalesced batch).
func (h *Histogram) ObserveModeled(modeled time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.modeled.observe(h.bounds, modeled)
	h.mu.Unlock()
}

func (h *Histogram) snapshotSide(side *histSide) HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(side.counts)),
		Count:  side.count,
		Sum:    side.sum,
	}
	copy(s.Counts, side.counts)
	return s
}

// Wall returns a snapshot of the wall-clock side (zero snapshot on nil).
func (h *Histogram) Wall() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snapshotSide(&h.wall)
}

// Modeled returns a snapshot of the vtime-modeled side (zero on nil).
func (h *Histogram) Modeled() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snapshotSide(&h.modeled)
}

// Registry is the single home of a warehouse's metrics. Metrics are created
// on first use and live for the registry's lifetime; callers on hot paths
// should resolve their instruments once and retain the pointers. Safe for
// concurrent use; all methods are nil-safe.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed (nil on a nil
// registry — the nil Counter is itself a no-op).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc makes the named gauge report f() whenever it is read, for state
// that something else already keeps and that changes too often to be pushed
// (the index store's arena sizes change with every put). Set and Add no
// longer affect it. Register at wiring time, before the registry is served;
// f must be safe for concurrent use.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	if g := r.Gauge(name); g != nil {
		g.fn = f
	}
}

// CounterFunc is GaugeFunc for a counter; f must never decrease.
func (r *Registry) CounterFunc(name string, f func() int64) {
	if c := r.Counter(name); c != nil {
		c.fn = f
	}
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds (DefaultLatencyBuckets when none are passed). Bounds of an existing
// histogram are not changed.
func (r *Registry) Histogram(name string, bounds ...time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Add increments the named counter by delta. It satisfies the CounterSink
// interfaces of the kv and chaos packages, which stream their degradation
// counters into the registry without importing it.
func (r *Registry) Add(name string, delta int64) { r.Counter(name).Add(delta) }

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns the registered gauge names, sorted.
func (r *Registry) GaugeNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
