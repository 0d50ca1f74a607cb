package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/pricing"
)

// rounds is how many equal parts a timed run is cut into; rate metrics are
// the median of the parts.
const rounds = 5

// probe is a reading of everything the harness diffs around a timed run.
type probe struct {
	at    time.Time
	cpu   time.Duration // user+sys of this process
	mem   runtime.MemStats
	usage meter.Usage
	reg   regSnap
}

// histSum is the count and total of one side of a registry histogram.
type histSum struct {
	Count int64
	Sum   time.Duration
}

func (h histSum) mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// regSnap is a reading of a warehouse's metrics registry: every counter, and
// both sides of every histogram.
type regSnap struct {
	counters map[string]int64
	wall     map[string]histSum
	modeled  map[string]histSum
}

func snapRegistry(r *obs.Registry) regSnap {
	s := regSnap{counters: map[string]int64{}, wall: map[string]histSum{}, modeled: map[string]histSum{}}
	for _, n := range r.CounterNames() {
		s.counters[n] = r.Counter(n).Value()
	}
	for _, n := range r.HistogramNames() {
		w, m := r.Histogram(n).Wall(), r.Histogram(n).Modeled()
		s.wall[n] = histSum{w.Count, w.Sum}
		s.modeled[n] = histSum{m.Count, m.Sum}
	}
	return s
}

// since returns the registry activity between an earlier reading and s.
func (s regSnap) since(prev regSnap) regSnap {
	d := regSnap{counters: map[string]int64{}, wall: map[string]histSum{}, modeled: map[string]histSum{}}
	for n, v := range s.counters {
		d.counters[n] = v - prev.counters[n]
	}
	for n, v := range s.wall {
		d.wall[n] = histSum{v.Count - prev.wall[n].Count, v.Sum - prev.wall[n].Sum}
	}
	for n, v := range s.modeled {
		d.modeled[n] = histSum{v.Count - prev.modeled[n].Count, v.Sum - prev.modeled[n].Sum}
	}
	return d
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (ru_maxrss is in
// KB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func takeProbe(w *core.Warehouse) probe {
	p := probe{at: time.Now(), cpu: cpuTime(), usage: w.Ledger().Snapshot(), reg: snapRegistry(w.Registry())}
	runtime.ReadMemStats(&p.mem)
	return p
}

// gcDelta is the garbage collector's activity over a timed run.
type gcDelta struct {
	Cycles    uint32
	Pause     time.Duration
	HeapSysMB float64 // heap obtained from the OS by the end: its high-water mark
}

func gcSince(before, after runtime.MemStats) gcDelta {
	return gcDelta{
		Cycles:    after.NumGC - before.NumGC,
		Pause:     time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		HeapSysMB: float64(after.HeapSys) / (1 << 20),
	}
}

// cost is what a ledger delta bills and how many billed requests it holds.
type cost struct {
	USD      float64
	Requests int64 // kv + s3 + sqs calls
	Usage    meter.Usage
}

func costOf(u meter.Usage) cost {
	return cost{
		USD:      float64(pricing.Singapore2012().Bill(u).Total()),
		Requests: u.ServiceCalls("dynamodb") + u.ServiceCalls("s3") + u.ServiceCalls("sqs"),
		Usage:    u,
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo records where a result was measured.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// result is everything one workload run reports. Metrics holds the
// end-to-end metrics and, after a traced run, the per-layer ones as well.
type result struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Seconds      int                    `json:"seconds"`
	Env          envInfo                `json:"env"`
	SequenceHash string                 `json:"sequence_hash"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Failures     []string               `json:"failures,omitempty"` // first few reasons
	Notes        []string               `json:"notes,omitempty"`    // what a reader of the numbers must know about this run
	Metrics      map[string]metricValue `json:"metrics"`
	// Rounds keeps the per-round values behind each median-of-rounds metric;
	// Samples the number of observations behind each timing.
	Rounds  map[string][]float64 `json:"rounds,omitempty"`
	Samples map[string]int       `json:"samples,omitempty"`
	// WallSeconds is the length of the timed run.
	WallSeconds float64 `json:"wall_seconds"`
}

func newResult(o options, seqHash uint64) *result {
	return &result{
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Env:          environment(),
		SequenceHash: fmt.Sprintf("%016x", seqHash),
		Metrics:      make(map[string]metricValue),
		Rounds:       make(map[string][]float64),
		Samples:      make(map[string]int),
	}
}

// set records a metric, looking its unit up in the spec; an unknown name is a
// bug in the harness.
func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the spec")
}

const maxFailuresKept = 5

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailuresKept {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// clocked collects clock readings, each with the speed factor of the stretch
// of the run it was read in: raw as the clock gave it, scaled in time of the
// reference box.
type clocked struct {
	raw, scaled []time.Duration
}

func (c *clocked) add(d time.Duration, factor float64) {
	c.raw = append(c.raw, d)
	c.scaled = append(c.scaled, time.Duration(float64(d)/factor))
}

// rawPrefix names the per-layer twin of a clocked end-to-end metric: the same
// statistic over what the clock read, before scaling.
const rawPrefix = "raw."

// setClocked records a metric computed from scaled readings and, as
// raw.<name>, the same from the raw ones. unit converts a reading, reduce
// turns the converted readings into the metric; a handful of readings (rounds,
// set-ups) is kept beside the metric.
func (r *result) setClocked(name string, c clocked, reduce func([]float64) float64, unit func(time.Duration) float64) {
	convert := func(ds []time.Duration) []float64 {
		v := make([]float64, len(ds))
		for i, d := range ds {
			v[i] = unit(d)
		}
		return v
	}
	scaled := convert(c.scaled)
	r.set(name, reduce(scaled))
	r.set(rawPrefix+name, reduce(convert(c.raw)))
	if len(scaled) <= 2*rounds {
		r.Rounds[name] = scaled
	}
}

// setClockedLatency records a p50/p95 pair over scaled latencies and its raw
// twin.
func (r *result) setClockedLatency(p50Name, p95Name string, c clocked) error {
	if err := r.setLatency(p50Name, p95Name, c.scaled); err != nil {
		return err
	}
	return r.setLatency(rawPrefix+p50Name, rawPrefix+p95Name, c.raw)
}

// setLatency records a p50/p95 pair and its sample count. A sample too small
// for a p95 is an error: the workloads are sized so that it never is.
func (r *result) setLatency(p50Name, p95Name string, sample []time.Duration) error {
	for name, p := range map[string]float64{p50Name: 50, p95Name: 95} {
		v, err := percentile(sample, p)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.set(name, ms(v))
		r.Samples[name] = len(sample)
	}
	return nil
}

// print writes the named metrics as an aligned table.
func (r *result) print(title string, defs []metricDef) {
	fmt.Printf("%s  [%s seed=%d]\n", title, r.Workload, r.Seed)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-32s %14.6g %-6s", d.Name, m.Value, m.Unit)
		if n, ok := r.Samples[d.Name]; ok {
			line += fmt.Sprintf("  n=%d", n)
		}
		if rs, ok := r.Rounds[d.Name]; ok {
			line += fmt.Sprintf("  rounds=%.4g spread=%.1f%%", rs, 100*spreadShare(rs))
		}
		fmt.Println(line)
	}
}
