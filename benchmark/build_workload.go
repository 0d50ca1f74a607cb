package main

import (
	"runtime"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/workload"
)

// verifySamples is how many timed selective queries the build workload
// collects over its builds: enough for a p95 with ten samples beyond it.
const verifySamples = 1000

// buildRun is what the untraced index-build run leaves for the traced replay.
type buildRun struct {
	docs    []doc
	report  core.IndexReport // of a whole bulk build: the set-up's
	usage   cost             // its ledger
	docWall float64          // mean wall seconds per document over the timed builds
	ops     float64          // documents indexed by the timed builds
	gc      gcDelta
}

// indexPrint is what two builds of one corpus made the same way must agree
// on. Comparing prints instead of builds lets a finished build be collected.
type indexPrint struct {
	items, raw, overhead int64
}

func printOf(b *built) indexPrint {
	raw, overhead := b.w.IndexBytes()
	return indexPrint{b.w.IndexItems(), raw, overhead}
}

// runIndexBuild times from-scratch bulk builds of the corpus; one op is one
// document. After each build the selective queries are timed against it by
// direct call; after the last one all ten queries are checked.
//
// The set-ups are whole bulk builds, the paper's quantity, and the modeled
// time, the bill and the index size are theirs. No lap of the yardstick can
// run inside one, so the timed builds are the same build cut in slices of
// sliceDocs documents (warehouse.go, buildSliced): they end with the same
// documents indexed and answer the same queries.
func runIndexBuild(o options) (*result, *buildRun, error) {
	docs := genCorpus(o.scale)
	builds := opCount(sizings[o.workload], o.seconds, len(docs)) / len(docs)
	res := newResult(o, 0)
	cfg := warehouseConfig(o.workload, o.seed, false)
	selective := queriesOf(wlServeSelective)
	verifyReps := (verifySamples + builds*len(selective) - 1) / (builds * len(selective))
	parsed, err := parseCorpus(docs)
	if err != nil {
		return nil, nil, err
	}
	truth, err := groundTruth(workload.XMark(), parsed)
	if err != nil {
		return nil, nil, err
	}
	parsed = nil
	y := newYardstick(docs)

	var (
		whole      *built
		wholePrint indexPrint
		setupTimes []time.Duration
	)
	for i := 0; i < o.setups; i++ {
		whole = nil // one warehouse in memory at a time
		start := time.Now()
		b, err := buildWarehouse(cfg, docs, buildFleet)
		if err != nil {
			return nil, nil, err
		}
		setupTimes = append(setupTimes, time.Since(start))
		if b.report.Docs != len(docs) {
			res.fail("set-up build %d indexed %d of %d documents", i, b.report.Docs, len(docs))
		}
		if i == 0 {
			wholePrint = printOf(b)
		} else if printOf(b) != wholePrint {
			res.fail("set-up build %d: %+v; set-up build 0: %+v", i, printOf(b), wholePrint)
		}
		whole = b
	}
	if err := verifyBuild(res, whole.w, workload.XMark(), truth, 1, nil, nil); err != nil {
		return nil, nil, err
	}
	report, one, sizeRatio := whole.report, costOf(whole.loadUsage), indexRatio(whole.w, docs)
	whole = nil

	// The timed builds, in rounds of equal numbers of builds. The builds of a
	// round are scaled by the laps run between their slices, the queries
	// asked of them by the laps run between the queries.
	var (
		first      indexPrint
		last       *built
		rates, cpu clocked // per round: time per document, processor time
		lat        clocked // per query
		wallTotal  time.Duration
		gc         gcDelta
		alloc      uint64
	)
	per := builds / rounds
	from := y.mark()
	for r := 0; r < rounds; r++ {
		var (
			wall, used         time.Duration
			lats               []time.Duration
			buildLaps, askLaps stretch // of the round's builds, of its queries
		)
		for k := 0; k < per; k++ {
			// Each build starts from a collected heap, and so do the queries
			// timed after it: neither pays for the other's garbage.
			last = nil
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			mark := y.mark()
			b, took, cpuTook, err := buildSliced(cfg, docs, buildFleet, &pacer{y: y})
			if err != nil {
				return nil, nil, err
			}
			runtime.ReadMemStats(&m1)
			buildLaps = append(buildLaps, y.since(mark)...)
			wall, used = wall+took, used+cpuTook
			alloc += m1.TotalAlloc - m0.TotalAlloc - uint64(y.mark()-mark)*y.lapAlloc
			d := gcSince(m0, m1)
			gc = gcDelta{gc.Cycles + d.Cycles, gc.Pause + d.Pause, d.HeapSysMB}
			res.Attempted += len(docs)
			if b.report.Docs != len(docs) {
				res.fail("build %d indexed %d of %d documents", r*per+k, b.report.Docs, len(docs))
			}
			if r+k == 0 {
				first = printOf(b)
			} else if printOf(b) != first {
				res.fail("build %d: %+v; build 0: %+v", r*per+k, printOf(b), first)
			}
			runtime.GC()
			mark = y.mark()
			if err := verifyBuild(res, b.w, selective, truth, verifyReps, y, &lats); err != nil {
				return nil, nil, err
			}
			askLaps = append(askLaps, y.since(mark)...)
			last = b
		}
		buildFactor, askFactor := buildLaps.factor(), askLaps.factor()
		rates.add(wall/time.Duration(per*len(docs)), buildFactor)
		cpu.add(used, buildFactor)
		for _, d := range lats {
			lat.add(d, askFactor)
		}
		wallTotal += wall
	}
	laps := y.since(from)
	if err := verifyBuild(res, last.w, workload.XMark(), truth, 1, nil, nil); err != nil {
		return nil, nil, err
	}

	ops := float64(builds * len(docs))
	res.WallSeconds = wallTotal.Seconds()
	res.set("host.speed_factor", laps.factor())
	var sets clocked
	for _, d := range setupTimes {
		sets.add(d, laps.factor()) // as on the serve workloads: by the laps of the timed run
	}
	res.setClocked("setup_s", sets, median, time.Duration.Seconds)
	res.setClocked("ops_per_s", rates, median, func(d time.Duration) float64 { return 1 / d.Seconds() })
	if err := res.setClockedLatency("query_p50_ms", "query_p95_ms", lat); err != nil {
		return nil, nil, err
	}
	res.setClocked("cpu_ms_per_op", cpu, func(v []float64) float64 { return sum(v) / ops }, ms)
	res.set("alloc_kb_per_op", float64(alloc)/1024/ops)
	res.set("modeled_ms_per_op", ms(report.Total)/float64(len(docs)))
	res.set("usd_per_1k_ops", one.USD/float64(len(docs))*1000)
	res.set("billed_requests_per_op", float64(one.Requests)/float64(len(docs)))
	res.set("index_bytes_per_corpus_byte", sizeRatio)
	res.set("peak_rss_mb", peakRSSMB())
	res.set("ok_ops_share", 1-float64(res.Failed)/float64(res.Attempted))
	return res, &buildRun{docs: docs, report: report, usage: one, docWall: res.WallSeconds / ops, ops: ops, gc: gc}, nil
}

// verifyBuild runs the queries reps times against a freshly built warehouse
// by direct call and compares every answer with the ground truth; each query
// counts as one attempted op. With a yardstick, the laps that are due follow
// every query and the latencies are appended to lats.
func verifyBuild(res *result, w *core.Warehouse, queries []workload.Query, truth map[string]answer, reps int, y *yardstick, lats *[]time.Duration) error {
	in := ec2.Launch(w.Ledger(), ec2.XL)
	pace := pacer{y: y}
	for rep := 0; rep < reps; rep++ {
		for _, q := range queries {
			res.Attempted++
			start := time.Now()
			got, _, err := w.RunQueryOn(in, q.Text, true)
			if d := time.Since(start); y != nil {
				*lats = append(*lats, d)
				pace.after(d)
			}
			if err != nil {
				res.fail("%s on a fresh build: %v", q.Name, err)
				continue
			}
			if a := answerOf(got); a != truth[q.Name] {
				res.fail("%s on a fresh build answered %+v, want %+v", q.Name, a, truth[q.Name])
			}
		}
	}
	return nil
}
