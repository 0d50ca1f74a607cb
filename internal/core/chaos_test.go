package core

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/ec2"
	"repro/internal/cloud/kv"
	"repro/internal/index"
	"repro/internal/workload"
	"repro/internal/xmark"
)

// chaosSeed returns the seed of the chaos schedule; CI sweeps it through
// the CHAOS_SEED environment variable.
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		return n
	}
	return 1
}

// aggressiveRates is the fault mix of the differential test: every injection
// class enabled, hard enough that a typical run absorbs dozens of faults.
func aggressiveRates() chaos.Rates {
	return chaos.Rates{
		Throttle:     0.15,
		Internal:     0.05,
		PartialBatch: 0.30,
		DupDeliver:   0.20,
		ExpireLease:  0.15,
		S3Transient:  0.10,
	}
}

func chaosCorpus(seed int64) []xmark.Doc {
	cfg := xmark.DefaultConfig(16)
	cfg.Seed = seed
	cfg.TargetDocBytes = 8 << 10
	return xmark.Generate(cfg)
}

// submitWithRetry survives injected transient faults on the S3 put of the
// submission path, as a real front end would.
func submitWithRetry(t *testing.T, w *Warehouse, uri string, data []byte) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		err := w.SubmitDocument(uri, data)
		if err == nil {
			return
		}
		if attempt > 100 {
			t.Fatalf("submit %s: %v", uri, err)
		}
	}
}

// indexLive drives a corpus through live indexer workers. With crash set,
// one worker is killed mid-message once it has demonstrably started
// working, and a replacement takes over its redelivered lease.
func indexLive(t *testing.T, w *Warehouse, docs []xmark.Doc, crash bool) {
	t.Helper()
	for _, d := range docs {
		submitWithRetry(t, w, d.URI, d.Data)
	}
	opts := WorkerOptions{Visibility: 150 * time.Millisecond, WorkDelay: 5 * time.Millisecond}
	var workers []*Worker
	if crash {
		victim := w.StartIndexer(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{
			Visibility: 150 * time.Millisecond,
			WorkDelay:  40 * time.Millisecond,
		})
		deadline := time.Now().Add(20 * time.Second)
		for victim.Processed() < 1 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if victim.Processed() < 1 {
			t.Fatal("victim worker never processed a message")
		}
		time.Sleep(15 * time.Millisecond) // land inside the next message's work window
		victim.Crash()
	}
	for i := 0; i < 3; i++ {
		workers = append(workers, w.StartIndexer(ec2.Launch(w.ledger, ec2.Large), opts))
	}
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		if w.Queues().Len(LoaderQueue) == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, wk := range workers {
		wk.Stop()
	}
	if n := w.Queues().Len(LoaderQueue); n != 0 {
		t.Fatalf("loader queue still holds %d messages after deadline", n)
	}
	if crash {
		if w.Registry().Counter("core.worker.redeliveries").Value() == 0 {
			t.Error("crash plus chaos produced no observed redeliveries")
		}
	}
}

// chaosFaults reads the faults injected so far back from the registry's
// chaos.* counters, which the injector streams every tally into: the total
// and the count by class.
func chaosFaults(w *Warehouse) (total int64, byClass map[string]int64) {
	byClass = map[string]int64{}
	for _, name := range []string{chaos.MetricThrottles, chaos.MetricInternals, chaos.MetricPartialBatches,
		chaos.MetricDupDeliveries, chaos.MetricExpiredLeases, chaos.MetricS3Faults} {
		byClass[name] = w.Registry().Counter(name).Value()
		total += byClass[name]
	}
	return total, byClass
}

type tableDump map[string][]kv.Item

func dumpStore(t *testing.T, w *Warehouse) tableDump {
	t.Helper()
	// AsDumper walks the store stack (retry and chaos wrappers) to the
	// dumping store.
	dumper := kv.AsDumper(w.Store())
	if dumper == nil {
		t.Fatalf("store %T cannot dump tables", w.Store())
	}
	out := tableDump{}
	for _, tbl := range w.Strategy.Tables() {
		out[tbl] = dumper.DumpTable(tbl)
	}
	return out
}

// checkLayout holds every table of got's store to the bulk layout and to
// want's postings (index.CheckLayout).
func checkLayout(t *testing.T, label string, got, want *Warehouse) {
	t.Helper()
	gd, wd := dumpStore(t, got), dumpStore(t, want)
	for _, tbl := range got.Strategy.Tables() {
		if err := index.CheckLayout(got.Store().Limits(), tbl, gd[tbl], wd[tbl]); err != nil {
			t.Errorf("%s, table %s: %v", label, tbl, err)
		}
	}
}

func itemLine(it kv.Item) string {
	s := it.HashKey + "|" + it.RangeKey
	for _, a := range it.Attrs {
		s += "|" + a.Name
		for _, v := range a.Values {
			s += fmt.Sprintf("|%x", v)
		}
	}
	return s
}

// runWorkload evaluates the paper's ten XMark queries and returns, per
// query, the sorted rendered rows (URI plus columns).
func runWorkload(t *testing.T, w *Warehouse) map[string][]string {
	t.Helper()
	in := ec2.Launch(w.ledger, ec2.XL)
	out := map[string][]string{}
	for _, q := range workload.XMark() {
		res, _, err := w.RunQueryOn(in, q.Text, true)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		rows := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = fmt.Sprintf("%s|%v", r.URI, r.Cols)
		}
		sort.Strings(rows)
		out[q.Name] = rows
	}
	return out
}

// indexByDriverReruns submits a corpus and runs the synchronous driver until
// the loader queue is empty. Under chaos a run stops at the first fault it
// cannot absorb (a duplicate delivery makes a delete stale, a file-store read
// fails) and releases every message it holds, so the next run takes them up.
func indexByDriverReruns(t *testing.T, w *Warehouse, docs []xmark.Doc) {
	t.Helper()
	for _, d := range docs {
		submitWithRetry(t, w, d.URI, d.Data)
	}
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 2)
	runs := 0
	for w.Queues().Len(LoaderQueue) > 0 {
		if runs++; runs > 200 {
			t.Fatalf("loader queue still holds %d messages after %d driver runs", w.Queues().Len(LoaderQueue), runs-1)
		}
		w.IndexCorpusOn(fleet, nil) // a failed run has released what it held
	}
	t.Logf("driver converged in %d runs", runs)
}

// TestChaosDifferentialIndexing is the proof obligation of the chaos layer:
// a randomized corpus indexed by live workers under aggressive injected
// faults — throttling, transient errors, partial batches, duplicate
// deliveries, forced lease expiries, S3 faults, plus one worker crashed
// mid-run — must leave the warehouse byte-identical to a fault-free run:
// same index store contents, same answers to all ten workload queries, and
// an empty dead-letter queue.
func TestChaosDifferentialIndexing(t *testing.T) {
	chaosDifferentialIndexing(t, false)
}

// TestChaosDifferentialIndexingBulkLoad runs the same differential through
// the bulk driver (IndexCorpusOn with BulkLoad): packed commits under
// aggressive chaos, rerun until the loader queue drains, must converge to
// the postings of the clean per-document live run and of a clean bulk run —
// released messages redeliver, and a commit drops the contributions that
// already landed. Byte-identity gives way to index.CheckLayout: re-runs
// pack the documents of each commit, so the packs differ from a clean
// commit's. The index lives in one store partition, which names the
// subtest.
func TestChaosDifferentialIndexingBulkLoad(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		chaosDifferentialIndexing(t, true)
	})
}

// chaosDifferentialIndexing indexes a chaotic warehouse by live workers with
// a crash, or with bulk set by bulk-driver reruns, and holds it to a clean
// live run.
func chaosDifferentialIndexing(t *testing.T, bulk bool) {
	seed := chaosSeed(t)
	docs := chaosCorpus(seed)

	clean, err := New(Config{Strategy: index.TwoLUPI})
	if err != nil {
		t.Fatal(err)
	}
	indexLive(t, clean, docs, false)

	chaotic, err := New(Config{
		Strategy: index.TwoLUPI,
		BulkLoad: bulk,
		// Tracing on the chaotic side proves the span journal perturbs
		// nothing even under concurrent workers and injected faults.
		Trace: true,
		Chaos: &chaos.Plan{Seed: seed, Rates: aggressiveRates()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Injected redeliveries must not push healthy documents into the
	// dead-letter queue: raise the redrive threshold far above what the
	// fault rates can produce.
	if err := chaotic.Queues().SetRedrivePolicy(LoaderQueue, LoaderDeadLetters, 200); err != nil {
		t.Fatal(err)
	}
	if bulk {
		indexByDriverReruns(t, chaotic, docs)
	} else {
		indexLive(t, chaotic, docs, true)
	}

	if n, byClass := chaosFaults(chaotic); n == 0 {
		t.Error("chaotic run injected no faults")
	} else {
		t.Logf("chaos: %v", byClass)
		t.Logf("retry: %+v", chaotic.RetryStats())
	}
	if rs := chaotic.RetryStats(); rs.Retries == 0 {
		t.Error("retry layer absorbed nothing under aggressive chaos")
	}

	// Both dead-letter queues must be empty: every document was eventually
	// indexed.
	if n := clean.Queues().Len(LoaderDeadLetters); n != 0 {
		t.Errorf("clean run dead-letter queue holds %d", n)
	}
	if n := chaotic.Queues().Len(LoaderDeadLetters); n != 0 {
		t.Errorf("chaotic run dead-letter queue holds %d", n)
	}

	if bulk {
		// The packs of re-runs differ from a clean commit's: hold the
		// chaotic store to the layout and to the postings of both clean
		// references — no contribution duplicated or lost.
		cleanBulk, err := New(Config{Strategy: index.TwoLUPI, BulkLoad: true})
		if err != nil {
			t.Fatal(err)
		}
		indexByDriverReruns(t, cleanBulk, docs)
		checkLayout(t, "chaotic vs clean per-document", chaotic, clean)
		checkLayout(t, "chaotic vs clean bulk", chaotic, cleanBulk)
	} else {
		// Store contents must be byte-identical, table by table, item by
		// item.
		cleanDump, chaoticDump := dumpStore(t, clean), dumpStore(t, chaotic)
		for _, tbl := range clean.Strategy.Tables() {
			a, b := cleanDump[tbl], chaoticDump[tbl]
			if len(a) != len(b) {
				t.Errorf("%s: clean %d items, chaotic %d — redelivery duplicated or lost writes", tbl, len(a), len(b))
				continue
			}
			for i := range a {
				la, lb := itemLine(a[i]), itemLine(b[i])
				if la != lb {
					t.Errorf("%s item %d differs:\n  clean:   %s\n  chaotic: %s", tbl, i, la, lb)
					break
				}
			}
		}
	}

	// Quiesce injection, then the ten workload queries must answer
	// identically over both warehouses.
	chaotic.ChaosInjector().SetRates(chaos.Rates{})
	cleanRows, chaoticRows := runWorkload(t, clean), runWorkload(t, chaotic)
	for name, want := range cleanRows {
		got := chaoticRows[name]
		if len(got) != len(want) {
			t.Errorf("%s: clean %d rows, chaotic %d", name, len(want), len(got))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s row %d: clean %q, chaotic %q", name, i, want[i], got[i])
				break
			}
		}
	}
}

// A zero-rate chaos layer must be billing-transparent: wrapping the
// services without injecting anything may not change a single metered
// call, unit or byte.
func TestZeroRateChaosBillingParity(t *testing.T) {
	seed := chaosSeed(t)
	docs := chaosCorpus(seed)[:6]

	run := func(plan *chaos.Plan) *Warehouse {
		w, err := New(Config{Strategy: index.LUP, Chaos: plan})
		if err != nil {
			t.Fatal(err)
		}
		fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 2)
		var uris []string
		for _, d := range docs {
			if _, err := w.files.Put(Bucket, DocKey(d.URI), d.Data, nil); err != nil {
				t.Fatal(err)
			}
			uris = append(uris, d.URI)
		}
		if _, err := w.IndexCorpusOn(fleet, uris); err != nil {
			t.Fatal(err)
		}
		in := ec2.Launch(w.ledger, ec2.Large)
		if _, _, err := w.RunQueryOn(in, workload.XMark()[0].Text, true); err != nil {
			t.Fatal(err)
		}
		return w
	}

	plain := run(nil)
	wrapped := run(&chaos.Plan{Seed: seed}) // all rates zero

	if n, _ := chaosFaults(wrapped); n != 0 {
		t.Fatalf("zero-rate plan injected %d faults", n)
	}
	pu, wu := plain.Ledger().Snapshot(), wrapped.Ledger().Snapshot()
	for _, svc := range []string{"dynamodb", "s3", "sqs"} {
		for _, op := range []string{"put", "batchPut", "get", "batchGet", "deleteItem", "send", "receive", "delete", "changeVisibility", "list", "head"} {
			if g, w := wu.Get(svc, op), pu.Get(svc, op); g != w {
				t.Errorf("%s.%s: wrapped %+v, plain %+v", svc, op, g, w)
			}
		}
	}
	// The stores themselves must also match byte for byte.
	pd, wd := dumpStore(t, plain), dumpStore(t, wrapped)
	for _, tbl := range plain.Strategy.Tables() {
		if len(pd[tbl]) != len(wd[tbl]) {
			t.Errorf("%s: plain %d items, wrapped %d", tbl, len(pd[tbl]), len(wd[tbl]))
			continue
		}
		for i := range pd[tbl] {
			if itemLine(pd[tbl][i]) != itemLine(wd[tbl][i]) {
				t.Errorf("%s item %d differs under zero-rate wrapping", tbl, i)
				break
			}
		}
	}
}

// TestChaosLookupStoreRetries: the look-up attributes the store retries it
// absorbed to its query. With read throttling switched on after a clean
// build and one look-up read in flight at a time, each query's
// index.lookup.store_retries must grow by exactly what the warehouse's retry
// layer counted across that query, and some query must have been retried.
func TestChaosLookupStoreRetries(t *testing.T) {
	seed := chaosSeed(t)
	w, _ := buildWarehouse(t, Config{
		Strategy: index.TwoLUPI,
		Chaos:    &chaos.Plan{Seed: seed}, // zero rates while indexing
	}, chaosCorpus(seed)[:6])
	w.retry.MaxAttempts = 20 // a throttled read is retried, never given up
	w.ChaosInjector().SetRates(chaos.Rates{Throttle: 0.5})
	lookupRetries := w.Registry().Counter("index.lookup.store_retries")
	in := ec2.Launch(w.ledger, ec2.Large)
	var total int64
	for _, q := range workload.XMark() {
		before, storeBefore := lookupRetries.Value(), w.RetryStats().Retries
		if _, _, err := w.RunQueryOn(in, q.Text, true); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		got, want := lookupRetries.Value()-before, w.RetryStats().Retries-storeBefore
		if got != want {
			t.Errorf("%s: index.lookup.store_retries grew by %d, the retry layer by %d", q.Name, got, want)
		}
		total += got
	}
	if total == 0 {
		t.Error("no look-up read was retried under read throttling")
	}
}

// IndexCorpusOn must release its in-flight message when a document fails,
// so a rerun after fixing the problem drains the queue immediately instead
// of waiting out a multi-minute orphaned lease.
func TestIndexCorpusOnRerunAfterFailure(t *testing.T) {
	w := newWarehouse(t, index.LUP)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)

	docs := xmark.Paintings()[:4]
	uris := []string{"broken.xml"}
	if _, err := w.files.Put(Bucket, DocKey("broken.xml"), []byte("<open><mismatch></open>"), nil); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if _, err := w.files.Put(Bucket, DocKey(d.URI), d.Data, nil); err != nil {
			t.Fatal(err)
		}
		uris = append(uris, d.URI)
	}

	if _, err := w.IndexCorpusOn(fleet, uris); err == nil {
		t.Fatal("indexing an unparsable document succeeded")
	}
	// The failed message was released, not left leased: the whole remainder
	// of the queue is immediately receivable.
	if got, want := w.Queues().Len(LoaderQueue), len(uris); got != want {
		t.Fatalf("loader queue holds %d messages after failure, want %d", got, want)
	}

	// Fix the document and rerun without re-sending: the driver drains the
	// released messages right away.
	if _, err := w.files.Put(Bucket, DocKey("broken.xml"), docs[0].Data, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := w.IndexCorpusOn(fleet, nil)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if rep.Docs != len(uris) {
		t.Errorf("rerun indexed %d documents, want %d", rep.Docs, len(uris))
	}
	if n := w.Queues().Len(LoaderQueue); n != 0 {
		t.Errorf("loader queue still holds %d messages", n)
	}
}
