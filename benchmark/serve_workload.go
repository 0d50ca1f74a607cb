package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/workload"
)

// warmupShare is the prefix of the sequence sent, and discarded, before the
// clock starts.
const warmupShare = 0.05

// serveRun is what the untraced run of a serve workload leaves behind for
// the traced replay to compare with.
type serveRun struct {
	docs    []doc
	reqs    []request
	samples []sample
	reg     regSnap // registry activity of the timed run
	cost    cost    // ledger activity of the timed run (plus the final drain)
	shed    int64
	gc      gcDelta
	// writeLat holds the latency of every PUT and DELETE of the timed run.
	writeLat []time.Duration
	// indexBytes is the index footprint after the run (and the final drain).
	indexBytes int64
}

// opCount sizes a run: OpsPerSecond x seconds but at least MinOps, in whole
// rounds of whole units (a unit is one request, or one build's documents).
func opCount(def sizing, seconds, unit int) int {
	n := def.OpsPerSecond * float64(seconds)
	if n < float64(def.MinOps) {
		n = float64(def.MinOps)
	}
	per := int(n/float64(rounds*unit) + 0.5)
	if per < 1 {
		per = 1
	}
	return per * rounds * unit
}

// readsOf returns the queries among the requests.
func readsOf(reqs []request) []request {
	var out []request
	for _, r := range reqs {
		if r.Kind == kindQuery {
			out = append(out, r)
		}
	}
	return out
}

// runServe runs one of the three serve workloads untraced and fills the
// end-to-end metrics.
func runServe(o options) (*result, *serveRun, error) {
	docs := genCorpus(o.scale)
	parsed, err := parseCorpus(docs)
	if err != nil {
		return nil, nil, err
	}
	truth, err := groundTruth(queriesOf(o.workload), parsed)
	if err != nil {
		return nil, nil, err
	}
	n := opCount(sizings[o.workload], o.seconds, 1)
	reqs, err := buildSequence(o.workload, o.seed, n, docs)
	if err != nil {
		return nil, nil, err
	}
	res := newResult(o, sequenceHash(reqs))
	if idle, removes := idleRemoves(reqs); idle > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d DELETEs hit a document an earlier lap over the corpus removed: this run is longer than one lap (%d writes), so its write mix is not the gated run's", idle, removes, len(docs)))
	}
	warm := readsOf(reqs[:int(float64(n)*warmupShare)])
	y := newYardstick(docs)

	// Set-up, several times over: load and index the corpus, start the
	// daemon, warm it up. The last one serves the timed run.
	cfg := warehouseConfig(o.workload, o.seed, false)
	var (
		b    *built
		d    *daemon
		took []time.Duration
	)
	for i := 0; i < o.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, err
			}
			b, d = nil, nil
			debug.FreeOSMemory() // the discarded warehouse must not inflate peak_rss_mb
		}
		start := time.Now()
		if b, err = buildWarehouse(cfg, docs, buildFleet); err != nil {
			return nil, nil, err
		}
		if d, err = startDaemon(b.w, warehouseBackend(b.w)); err != nil {
			return nil, nil, err
		}
		ss, _ := d.drive(warm, nil)
		for _, s := range ss {
			if s.Err != "" {
				d.stop()
				return nil, nil, fmt.Errorf("warm-up request failed: %s", s.Err)
			}
		}
		took = append(took, time.Since(start))
	}

	// The timed run: five rounds over the same multiset of requests. Every
	// clock reading of a round is scaled by the round's own laps.
	runtime.GC()
	var (
		samples []sample
		rates   clocked // seconds per request, per round
		cpu     clocked
		lat     clocked // per query
	)
	from := y.mark()
	before := takeProbe(b.w)
	for r := 0; r < rounds; r++ {
		part := reqs[r*n/rounds : (r+1)*n/rounds]
		ss, st := d.drive(part, y)
		factor := st.factor()
		var work, used time.Duration
		for i, s := range ss {
			work += s.latency()
			used += s.CPU
			if part[i].Kind == kindQuery {
				lat.add(s.latency(), factor)
			}
		}
		rates.add(work/time.Duration(len(part)), factor)
		cpu.add(used, factor)
		samples = append(samples, ss...)
	}
	after := takeProbe(b.w)
	laps := y.since(from)
	if err := d.stop(); err != nil {
		return nil, nil, err
	}
	usage := after.usage.Sub(before.usage)
	if b.w.Corpus() != nil {
		// The writes still in the buffer are billed when they fold, so the
		// cost of the run includes the final drain.
		if err := drain(b.w); err != nil {
			return nil, nil, err
		}
		usage = b.w.Ledger().Snapshot().Sub(before.usage)
	}
	raw, overhead := b.w.IndexBytes()
	run := &serveRun{docs: docs, reqs: reqs, samples: samples, reg: after.reg.since(before.reg), cost: costOf(usage),
		gc: gcSince(before.mem, after.mem), indexBytes: raw + overhead}

	// Outcomes: a request fails on a transport error, a non-200 status, an
	// undecodable body or — on the immutable workloads, where the answer is
	// known — a wrong answer.
	res.Attempted = len(reqs)
	for i, s := range samples {
		r := reqs[i]
		switch {
		case s.Err != "":
			res.fail("request %d: %s", i, s.Err)
		case r.Kind == kindQuery && b.w.Corpus() == nil && s.Answer != truth[r.Query.Name]:
			res.fail("request %d: %s answered %+v, want %+v", i, r.Query.Name, s.Answer, truth[r.Query.Name])
		}
		if r.Kind != kindQuery {
			run.writeLat = append(run.writeLat, s.latency())
		}
	}
	for name, v := range run.reg.counters {
		if strings.HasPrefix(name, "serve.shed.") {
			run.shed += v
		}
	}
	if b.w.Corpus() != nil {
		if err := checkFinalState(res, b.w, docs, reqs); err != nil {
			return nil, nil, err
		}
	}

	ops := float64(len(reqs))
	res.WallSeconds = after.at.Sub(before.at).Seconds()
	res.set("host.speed_factor", laps.factor())
	// No lap can run inside a set-up, and laps run next to one read the state
	// of the heap it leaves more than that of the machine; the set-ups are
	// scaled by the laps of the timed run that follows them.
	var sets clocked
	for _, d := range took {
		sets.add(d, laps.factor())
	}
	res.setClocked("setup_s", sets, median, time.Duration.Seconds)
	res.setClocked("ops_per_s", rates, median, func(d time.Duration) float64 { return 1 / d.Seconds() })
	if err := res.setClockedLatency("query_p50_ms", "query_p95_ms", lat); err != nil {
		return nil, nil, err
	}
	res.setClocked("cpu_ms_per_op", cpu, func(v []float64) float64 { return sum(v) / ops }, ms)
	// The laps' allocations, the same on every lap, are not the program's.
	allocated := after.mem.TotalAlloc - before.mem.TotalAlloc - uint64(len(laps))*y.lapAlloc
	res.set("alloc_kb_per_op", float64(allocated)/1024/ops)
	res.set("modeled_ms_per_op", ms(run.reg.modeled["core.query.response"].mean()))
	res.set("usd_per_1k_ops", run.cost.USD/ops*1000)
	res.set("billed_requests_per_op", float64(run.cost.Requests)/ops)
	res.set("index_bytes_per_corpus_byte", indexRatio(b.w, finalContent(docs, reqs)))
	res.set("peak_rss_mb", peakRSSMB())
	res.set("ok_ops_share", 1-float64(res.Failed)/float64(res.Attempted))
	return res, run, nil
}

// checkFinalState verifies a drained mutable warehouse against a from-scratch
// evaluation of the content the write stream leaves: all ten queries must
// answer as they do over the final documents without any index. Each check
// counts as one attempted op.
func checkFinalState(res *result, w *core.Warehouse, docs []doc, reqs []request) error {
	final, err := parseCorpus(finalContent(docs, reqs))
	if err != nil {
		return err
	}
	queries := workload.XMark()
	truth, err := groundTruth(queries, final)
	if err != nil {
		return err
	}
	in := ec2.Launch(w.Ledger(), ec2.XL)
	for _, q := range queries {
		res.Attempted++
		got, _, err := w.RunQueryOn(in, q.Text, true)
		if err != nil {
			res.fail("final state: %s: %v", q.Name, err)
			continue
		}
		if a := answerOf(got); a != truth[q.Name] {
			res.fail("final state: %s answered %+v, want %+v", q.Name, a, truth[q.Name])
		}
	}
	return nil
}
