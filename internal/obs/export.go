package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// promName converts a registry metric name to a Prometheus-compatible one:
// an "xwh_" namespace prefix, dots to underscores.
func promName(name string) string {
	return "xwh_" + strings.ReplaceAll(name, ".", "_")
}

// WriteProm renders the registry in the Prometheus text exposition format
// (version 0.0.4). Counters get a `_total` suffix; each histogram emits two
// families, `<name>_wall_seconds` and `<name>_modeled_seconds`, with the
// usual `_bucket{le=...}`, `_sum` and `_count` series.
func WriteProm(w io.Writer, r *Registry) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, name := range r.CounterNames() {
		pn := promName(name) + "_total"
		fmt.Fprintf(bw, "# TYPE %s counter\n", pn)
		fmt.Fprintf(bw, "%s %d\n", pn, r.Counter(name).Value())
	}
	for _, name := range r.GaugeNames() {
		pn := promName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(bw, "%s %d\n", pn, r.Gauge(name).Value())
	}
	for _, name := range r.HistogramNames() {
		h := r.Histogram(name)
		writePromHist(bw, promName(name)+"_wall_seconds", h.Wall())
		writePromHist(bw, promName(name)+"_modeled_seconds", h.Modeled())
	}
	return bw.Flush()
}

func writePromHist(w io.Writer, pn string, s HistSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", pn,
			strconv.FormatFloat(bound.Seconds(), 'g', -1, 64), cum)
	}
	if n := len(s.Counts); n > 0 {
		cum += s.Counts[n-1]
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
	fmt.Fprintf(w, "%s_sum %s\n", pn, strconv.FormatFloat(s.Sum.Seconds(), 'g', -1, 64))
	fmt.Fprintf(w, "%s_count %d\n", pn, s.Count)
}

// WriteText renders the registry as a human-readable report, the format
// `xwh stats` prints: counters and gauges as aligned name/value lines,
// histograms as count/mean/p50/p99 summaries of both clock sides.
func WriteText(w io.Writer, r *Registry) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	if names := r.CounterNames(); len(names) > 0 {
		fmt.Fprintln(bw, "counters:")
		for _, name := range names {
			fmt.Fprintf(bw, "  %-40s %d\n", name, r.Counter(name).Value())
		}
	}
	if names := r.GaugeNames(); len(names) > 0 {
		fmt.Fprintln(bw, "gauges:")
		for _, name := range names {
			fmt.Fprintf(bw, "  %-40s %d\n", name, r.Gauge(name).Value())
		}
	}
	if names := r.HistogramNames(); len(names) > 0 {
		fmt.Fprintln(bw, "histograms (count / mean / p50 / p99):")
		for _, name := range names {
			h := r.Histogram(name)
			for _, side := range []struct {
				label string
				s     HistSnapshot
			}{{"modeled", h.Modeled()}, {"wall", h.Wall()}} {
				if side.s.Count == 0 {
					continue
				}
				fmt.Fprintf(bw, "  %-40s %6d  %10s  %10s  %10s\n",
					name+"."+side.label, side.s.Count,
					side.s.Mean().Round(time.Microsecond),
					side.s.Quantile(0.50).Round(time.Microsecond),
					side.s.Quantile(0.99).Round(time.Microsecond))
			}
		}
	}
	return bw.Flush()
}

// PromSample is one parsed sample line of a Prometheus text exposition.
type PromSample struct {
	Name   string
	Labels string // raw label block, braces stripped; "" when absent
	Value  float64
}

// ParseProm is a minimal validator/parser for the Prometheus text format:
// it accepts comment and blank lines, requires every other line to be
// `name[{labels}] value`, and returns the parsed samples. It exists so the
// obs-smoke target and the xwh serve smoke test can assert the exporter's
// output is well-formed without a Prometheus dependency.
func ParseProm(rd io.Reader) ([]PromSample, error) {
	var out []PromSample
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Split the metric part from the value at the last space, so label
		// values containing spaces would still parse.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("obs: prom line %d: no value: %q", lineNo, line)
		}
		metric, valStr := strings.TrimSpace(line[:i]), line[i+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: prom line %d: bad value %q: %v", lineNo, valStr, err)
		}
		name, labels := metric, ""
		if j := strings.IndexByte(metric, '{'); j >= 0 {
			if !strings.HasSuffix(metric, "}") {
				return nil, fmt.Errorf("obs: prom line %d: unclosed label block: %q", lineNo, line)
			}
			name, labels = metric[:j], metric[j+1:len(metric)-1]
		}
		if name == "" {
			return nil, fmt.Errorf("obs: prom line %d: empty metric name: %q", lineNo, line)
		}
		for _, r := range name {
			if !(r == '_' || r == ':' ||
				(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				return nil, fmt.Errorf("obs: prom line %d: invalid metric name %q", lineNo, name)
			}
		}
		out = append(out, PromSample{Name: name, Labels: labels, Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Handler serves the registry and tracer over HTTP:
//
//	/metrics     Prometheus text format
//	/trace.json  span journal, oldest first
//	/healthz     liveness: always 200 while the process serves
//	/readyz      readiness: 200 when every ready check passes, else 503
//
// tr may be nil, in which case /trace.json serves an empty array. Each
// ready func reports one readiness precondition (warehouse loaded, queue
// accepting); a non-nil error makes /readyz answer 503 with the reason.
// With no ready funcs, /readyz behaves like /healthz.
func Handler(r *Registry, tr *Tracer, ready ...func() error) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w, r)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = tr.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, check := range ready {
			if err := check(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "not ready: %v\n", err)
				return
			}
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// Span names of the Figure 1 pipeline stages. Write side: a document is
// submitted (steps 1-3), then a worker extracts the index entries and
// uploads them (steps 4-7; "upload" covers both the per-document path and a
// bulk loader flush share). Read side: a query is
// submitted (steps 8-9), processed (10-14: index lookup — itself split
// into raw gets, the LUP⋉LUI semijoin and the twig join — then
// per-document eval and the results write), and its results fetched
// (steps 15-18).
const (
	SpanSubmitDocument = "submit.document"
	SpanIndexDoc       = "index.doc"
	SpanExtract        = "extract"
	SpanUpload         = "upload"
	// SpanCompact wraps one delta-compaction pass of a mutable corpus: the
	// group-committed fold of the write buffer into the main index store.
	// Its billed puts/deletes are the maintenance cost the mutate experiment
	// attributes separately from first-build uploads.
	SpanCompact = "index.compact"

	// SpanAdmit wraps one HTTP query in the serving daemon: its admission,
	// its wait for a slot and the backend's answer.
	SpanAdmit = "serve.admit"

	SpanQuery        = "query"
	SpanSubmitQuery  = "submit.query"
	SpanProcess      = "process"
	SpanLookup       = "lookup"
	SpanIndexGet     = "index.get"
	SpanSemijoin     = "semijoin"
	SpanTwigJoin     = "twigjoin"
	SpanEval         = "eval"
	SpanResults      = "results"
	SpanFetchResults = "fetch.results"
)
