package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain loads the contract as main does; the tests run in benchmark/.
func TestMain(m *testing.M) {
	if err := loadSpec("../" + specFile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// tinyScale keeps the workload tests to a few seconds.
var tinyScale = scale{Docs: 100, DocBytes: 2 << 10}

func tinyOptions(workload string, seed int64, traced bool) options {
	return options{workload: workload, seed: seed, seconds: 1, traced: traced, scale: tinyScale, setups: 1}
}

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestPercentile(t *testing.T) {
	sample := make([]time.Duration, 200)
	for i := range sample {
		sample[len(sample)-1-i] = time.Duration(i+1) * time.Millisecond // 200ms .. 1ms, unsorted
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 100 * time.Millisecond}, {95, 190 * time.Millisecond}, {0.5, time.Millisecond}} {
		got, err := percentile(sample, tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%v of 1..200ms = %v, %v; want %v", tc.p, got, err, tc.want)
		}
	}
	// 199 samples leave only 9 beyond the p95 rank (190).
	if _, err := percentile(sample[:199], 95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(sample, 96); err == nil {
		t.Error("p96 of 200 samples has 8 beyond it and must be refused")
	}
	if _, err := percentile(durations(1, 2, 3), 50); err == nil {
		t.Error("a median of 3 samples must be refused")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(sample, p); err == nil {
			t.Errorf("p%v must be refused", p)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("an empty sample must be refused")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	const msNS = int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "http", StartNS: 0, EndNS: 100 * msNS},
		// Two nested children that overlap from 30 to 40: they cover 10..60.
		{ID: 2, Parent: 1, Name: "a", StartNS: 10 * msNS, EndNS: 40 * msNS},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30 * msNS, EndNS: 60 * msNS},
		// A replay of part of b, run after the request: b keeps 30-25 = 5.
		{ID: 4, Parent: 3, Name: "c", StartNS: 200 * msNS, EndNS: 225 * msNS, Replayed: true},
		// A replay slower than its parent leaves a negative self time.
		{ID: 5, Parent: 4, Name: "d", StartNS: 300 * msNS, EndNS: 330 * msNS, Replayed: true},
	}
	want := map[int]time.Duration{
		1: 50 * time.Millisecond, 2: 30 * time.Millisecond, 3: 5 * time.Millisecond,
		4: -5 * time.Millisecond, 5: 30 * time.Millisecond,
	}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Unfloored, the self times telescope to the root's duration plus what
	// the replays ran over; floored per layer they can only exceed it.
	byName := map[string]time.Duration{"c": got[4]}
	if layerSelf(byName, "c") != 0 || layerSelf(map[string]time.Duration{"a": got[2]}, "a") != got[2] {
		t.Error("layerSelf must floor a negative mean at 0 and keep a positive one")
	}
}

func TestYardstick(t *testing.T) {
	// The factor of a stretch is the mean of its laps without the slowest
	// twentieth, over refLap; scaling divides by it.
	s := make(stretch, 20)
	for i := range s {
		s[i] = 2 * refLap
	}
	s[7] = 500 * refLap // one lap the host stalled
	if f := s.factor(); math.Abs(f-2) > 1e-9 {
		t.Errorf("factor of 19 laps of 2 x refLap and one stalled lap = %v, want 2", f)
	}
	if f := stretch(nil).factor(); f != 1 {
		t.Errorf("factor of no laps = %v, want 1", f)
	}

	// A lap allocates the same every time, and the pacer keeps the laps at
	// yardShare of the ops: one lap after the first op however short, then
	// none until the ops have earned the next.
	y := newYardstick(genCorpus(tinyScale))
	if y.lapAlloc == 0 || y.mark() != 0 {
		t.Fatalf("new yardstick: %d bytes per lap, %d laps on the clock", y.lapAlloc, y.mark())
	}
	pace := pacer{y: y}
	pace.after(time.Nanosecond)
	if y.mark() != 1 {
		t.Fatalf("%d laps after the first op, want 1", y.mark())
	}
	pace.after(time.Nanosecond)
	if y.mark() != 1 {
		t.Errorf("%d laps after two ops of a nanosecond, want still 1", y.mark())
	}
	pace.after(100 * time.Millisecond)
	if got, want := float64(pace.laps), yardShare*float64(pace.work); got < want || len(y.since(1)) == 0 {
		t.Errorf("laps took %v after ops of %v, want at least %v", pace.laps, pace.work, time.Duration(want))
	}

	// A clocked metric and its raw twin: the same statistic, scaled and not.
	res := newResult(tinyOptions(wlServeSelective, 1, false), 0)
	var c clocked
	c.add(30*time.Millisecond, s.factor())
	c.add(10*time.Millisecond, s.factor())
	res.setClocked("cpu_ms_per_op", c, sum, ms)
	if got, raw := res.Metrics["cpu_ms_per_op"].Value, res.Metrics[rawPrefix+"cpu_ms_per_op"].Value; got != 20 || raw != 40 {
		t.Errorf("cpu_ms_per_op = %v, raw %v; want 20 and 40", got, raw)
	}
}

func TestSequenceFollowsSeed(t *testing.T) {
	for _, wl := range []string{wlServeSelective, wlServeScan, wlServeMixedRW} {
		docs := genCorpus(tinyScale)
		a1, err := buildSequence(wl, 42, 400, docs)
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := buildSequence(wl, 42, 400, genCorpus(tinyScale))
		b, _ := buildSequence(wl, 7, 400, docs)
		if sequenceHash(a1) != sequenceHash(a2) {
			t.Errorf("%s: the same seed gave two different sequences", wl)
		}
		if sequenceHash(a1) == sequenceHash(b) {
			t.Errorf("%s: seeds 42 and 7 gave the same sequence", wl)
		}
	}
}

func TestMixedSequenceWrites(t *testing.T) {
	docs := genCorpus(tinyScale)
	reqs, err := buildSequence(wlServeMixedRW, 42, writeEvery*(len(docs)+10), docs) // a lap and a bit
	if err != nil {
		t.Fatal(err)
	}
	lastWrite := make(map[string]int) // the number of the last write to a URI
	lastAt := make(map[string]int)    // and its place in the sequence
	gone := make(map[string]bool)
	writes := 0
	for i, r := range reqs {
		if (r.Kind != kindQuery) != (i%writeEvery == writeEvery-1) {
			t.Fatalf("request %d: kind %d", i, r.Kind)
		}
		if r.Kind == kindQuery {
			continue
		}
		writes++
		if (r.Kind == kindDelete) != (writes%removeEvery == 0) {
			t.Fatalf("write %d: kind %d, want a DELETE at every %dth write and nowhere else", writes, r.Kind, removeEvery)
		}
		// The product fails queries after a removed document is written
		// again (see removeEvery), so the sequence must never do it.
		if r.Kind == kindPut && gone[r.URI] {
			t.Fatalf("write %d brings %s back", writes, r.URI)
		}
		gone[r.URI] = r.Kind == kindDelete
		if prev, ok := lastWrite[r.URI]; ok && writes-prev != len(docs) {
			t.Fatalf("writes %d and %d both hit %s: not a corpus apart", prev, writes, r.URI)
		}
		lastWrite[r.URI] = writes
		lastAt[r.URI] = i
	}
	// Only the second lap's DELETEs find nothing to remove.
	if idle, removes := idleRemoves(reqs); removes != writes/removeEvery || idle != removes-len(docs)/removeEvery {
		t.Errorf("%d DELETEs, %d of them idle, in %d writes over %d documents", removes, idle, writes, len(docs))
	}
	// The gate's run stays inside the first lap over the default corpus.
	if n := opCount(sizings[wlServeMixedRW], runSeconds, 1); n/writeEvery >= defaultScale.Docs || defaultScale.Docs%removeEvery != 0 {
		t.Errorf("%d requests at run_seconds %d hold %d writes: more than one lap over %d documents", n, runSeconds, n/writeEvery, defaultScale.Docs)
	}

	// The final content drops what the last write to a URI removed and keeps
	// the last revision otherwise.
	final := make(map[string][]byte)
	for _, d := range finalContent(docs, reqs) {
		final[d.URI] = d.Data
	}
	for i, r := range reqs {
		if r.Kind == kindQuery || lastAt[r.URI] != i {
			continue
		}
		data, present := final[r.URI]
		if r.Kind == kindDelete && present {
			t.Errorf("%s was removed last but is in the final content", r.URI)
		}
		if r.Kind == kindPut && string(data) != string(r.Body) {
			t.Errorf("%s does not end on its last revision", r.URI)
		}
	}
}

// TestBenchmarkJSONMeetsContract holds BENCHMARK.json, which the program
// loads its workload and metric lists from, to the limits the gate refuses a
// file beyond.
func TestBenchmarkJSONMeetsContract(t *testing.T) {
	data, err := os.ReadFile("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("%d bytes, the limit is 64 KiB", len(data))
	}
	var f map[string]json.RawMessage
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]json.RawMessage) string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	if got := keys(f); got != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Fatalf("top-level keys %s", got)
	}
	var seconds int
	if err := json.Unmarshal(f["run_seconds"], &seconds); err != nil || seconds < 1 || seconds > 60 {
		t.Errorf("run_seconds %s", f["run_seconds"])
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	list := func(key, wantKeys string, min, max int) []map[string]json.RawMessage {
		var items []map[string]json.RawMessage
		if err := json.Unmarshal(f[key], &items); err != nil || len(items) < min || len(items) > max {
			t.Fatalf("%s: %d entries (%v), want %d to %d", key, len(items), err, min, max)
		}
		for _, it := range items {
			var n string
			if err := json.Unmarshal(it["name"], &n); err != nil || !name.MatchString(n) || seen[n] {
				t.Errorf("%s: name %s is malformed or used twice", key, it["name"])
			}
			seen[n] = true
			if got := keys(it); got != wantKeys {
				t.Errorf("%s %s: keys %s, want %s", key, n, got, wantKeys)
			}
		}
		return items
	}
	for _, w := range list("workloads", "name,why", 2, 8) {
		var why string
		if err := json.Unmarshal(w["why"], &why); err != nil || why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w["name"])
		}
	}
	metrics := func(key, wantKeys string, max int) {
		for _, m := range list(key, wantKeys, 1, max) {
			var u, better string
			json.Unmarshal(m["unit"], &u)
			json.Unmarshal(m["better"], &better)
			if !unit.MatchString(u) || (better != "lower" && better != "higher") {
				t.Errorf("%s %s: unit %q or direction %q outside the contract", key, m["name"], u, better)
			}
			if raw, ok := m["bound"]; ok {
				var bound float64
				if err := json.Unmarshal(raw, &bound); err != nil || bound <= 0 || bound > 0.25 {
					t.Errorf("%s: bound %s must be in (0, 0.25]", m["name"], raw)
				}
			}
		}
	}
	metrics("end_to_end", "better,bound,name,unit", 16)
	metrics("per_layer", "better,name,unit", 128)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric is %+v, want setup_s in s, lower", endToEnd[0])
	}
	for _, d := range endToEnd[1:] {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a wider bound than setup_s", d.Name)
		}
	}
}

// emitted fails the test for every declared metric the result lacks.
func emitted(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or in unit %q, want %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
	}
}

// deterministic are the end-to-end metrics that depend on the seed alone
// (the bill and the request count take the queues' empty long polls with
// them, which depend on timing).
var deterministic = []string{"modeled_ms_per_op", "index_bytes_per_corpus_byte", "ok_ops_share"}

func TestSameSeedSameDeterministicMetrics(t *testing.T) {
	run := func(seed int64) *result {
		res, _, err := runServe(tinyOptions(wlServeSelective, seed, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("seed %d: %d failed ops: %v", seed, res.Failed, res.Failures)
		}
		return res
	}
	a, b, c := run(42), run(42), run(7)
	emitted(t, a, endToEnd)
	if a.SequenceHash != b.SequenceHash || a.SequenceHash == c.SequenceHash {
		t.Errorf("sequence hashes %s, %s (seed 42 twice) and %s (seed 7)", a.SequenceHash, b.SequenceHash, c.SequenceHash)
	}
	for _, name := range deterministic {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v and %v on the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	// Another seed reorders the same documents and the same multiset of
	// requests, so the work per op stays what it was.
	if x, y := a.Metrics["modeled_ms_per_op"].Value, c.Metrics["modeled_ms_per_op"].Value; math.Abs(x-y) > 1e-9*x {
		t.Errorf("modeled_ms_per_op is %v on seed 42 and %v on seed 7", x, y)
	}
}

func TestMixCounts(t *testing.T) {
	if got := mixCounts(103, 4, false); !reflect.DeepEqual(got, []int{26, 26, 26, 25}) {
		t.Errorf("uniform split of 103 over 4 = %v", got)
	}
	got := mixCounts(1000, 10, true)
	sum := 0
	for r, c := range got {
		sum += c
		if r > 0 && c > got[r-1] {
			t.Errorf("Zipf counts %v are not falling", got)
		}
	}
	if sum != 1000 || got[0] < 4*got[9] {
		t.Errorf("Zipf split of 1000 over 10 = %v (sum %d)", got, sum)
	}
}

func TestTracedRunsEmitEveryMetric(t *testing.T) {
	for _, wl := range []string{wlIndexBuild, wlServeMixedRW} {
		res, err := runWorkload(tinyOptions(wl, 42, true))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d failed ops: %v", wl, res.Failed, res.Failures)
		}
		emitted(t, res, endToEnd)
		emitted(t, res, perLayer)
		var line struct {
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(contractLine(res, true)), &line); err != nil || len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: the traced result line carries %d metrics (%v), want the %d per-layer ones", wl, len(line.Metrics), err, len(perLayer))
		}
	}
}
