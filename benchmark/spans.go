package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (the product code is not instrumented). Spans of one request share
// Request. Replayed marks a step span that re-executes part of its parent's
// work after the parent returned: it lies outside the parent's interval, and
// the parent's self time subtracts its whole duration.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root
	Request  int    `json:"request"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the recorder was created
	EndNS    int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory; write puts them on disk when the run ends.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID (IDs start at 1).
func (r *recorder) start(name string, parent, request int, replayed bool) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: int64(now), Replayed: replayed})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = int64(now)
	return s.dur()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that child spans cover (overlapping children count once), and
// minus the full duration of replayed children. A replay is a second
// execution, so on a single request it can come out slower than its parent
// and leave a negative self time; the noise cancels in the mean over
// requests, which is what layerSelf reports.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, p := range spans {
		covered := int64(0)
		var nested []span
		for _, c := range children[p.ID] {
			if c.Replayed {
				covered += c.EndNS - c.StartNS
			} else {
				nested = append(nested, c)
			}
		}
		sort.Slice(nested, func(i, j int) bool { return nested[i].StartNS < nested[j].StartNS })
		cursor := p.StartNS
		for _, c := range nested {
			lo, hi := c.StartNS, c.EndNS
			if lo < cursor {
				lo = cursor
			}
			if hi > p.EndNS {
				hi = p.EndNS
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[p.ID] = time.Duration(p.EndNS - p.StartNS - covered)
	}
	return out
}

// layerSelf is a layer's mean self time per request, floored at 0: a layer
// whose replayed children cost more than itself even in the mean has no time
// of its own, and the sum of the layers then exceeds the envelope, which
// trace.layers_sum_share shows.
func layerSelf(selfOf map[string]time.Duration, name string) time.Duration {
	if selfOf[name] < 0 {
		return 0
	}
	return selfOf[name]
}

// meanByName averages a per-span quantity over the requests that have the
// span: the sum over all spans of that name divided by the number of
// distinct requests carrying one.
func meanByName(spans []span, value func(span) time.Duration) map[string]time.Duration {
	sum := make(map[string]time.Duration)
	reqs := make(map[string]map[int]bool)
	for _, s := range spans {
		sum[s.Name] += value(s)
		if reqs[s.Name] == nil {
			reqs[s.Name] = make(map[int]bool)
		}
		reqs[s.Name][s.Request] = true
	}
	out := make(map[string]time.Duration, len(sum))
	for name, total := range sum {
		out[name] = total / time.Duration(len(reqs[name]))
	}
	return out
}

// write stores the spans as JSON under dir, creating it.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.all())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
