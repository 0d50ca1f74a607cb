package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func bulkTestCorpus() []xmark.Doc {
	cfg := xmark.DefaultConfig(20)
	cfg.Seed = 11
	cfg.TargetDocBytes = 4 << 10
	return xmark.Generate(cfg)
}

func indexCorpus(t *testing.T, cfg Config, fleetSize int, docs []xmark.Doc) (*Warehouse, IndexReport) {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, fleetSize)
	var uris []string
	for _, d := range docs {
		if _, err := w.files.Put(Bucket, DocKey(d.URI), d.Data, nil); err != nil {
			t.Fatal(err)
		}
		uris = append(uris, d.URI)
	}
	rep, err := w.IndexCorpusOn(fleet, uris)
	if err != nil {
		t.Fatal(err)
	}
	return w, rep
}

// TestBulkIndexingMatchesPerDocument: for every strategy, the bulk driver
// must leave the store holding the per-document driver's postings in the
// bulk layout (index.CheckLayout), report the same corpus totals, write
// strictly fewer items — the report's Items being the store's — bill
// strictly fewer requests, and model no more upload/total time.
func TestBulkIndexingMatchesPerDocument(t *testing.T) {
	docs := bulkTestCorpus()
	for _, s := range index.All() {
		t.Run(s.Name(), func(t *testing.T) {
			perDoc, pr := indexCorpus(t, Config{Strategy: s}, 2, docs)
			bulk, br := indexCorpus(t, Config{Strategy: s, BulkLoad: true}, 2, docs)

			if br.Docs != pr.Docs || br.DataBytes != pr.DataBytes || br.Entries != pr.Entries {
				t.Errorf("corpus totals differ: bulk %+v, per-doc %+v", br, pr)
			}
			if int64(br.Items) != bulk.IndexItems() || br.Items >= pr.Items {
				t.Errorf("bulk reports %d items of the store's %d, per-doc %d", br.Items, bulk.IndexItems(), pr.Items)
			}
			if br.Requests >= pr.Requests {
				t.Errorf("bulk requests %d not below per-doc %d", br.Requests, pr.Requests)
			}
			if br.AvgUpload > pr.AvgUpload {
				t.Errorf("bulk avg upload %v above per-doc %v", br.AvgUpload, pr.AvgUpload)
			}
			if br.Total > pr.Total {
				t.Errorf("bulk total %v above per-doc %v", br.Total, pr.Total)
			}
			checkLayout(t, "bulk vs per-doc", bulk, perDoc)
		})
	}
}

// TestBulkIndexingDeterministicAcrossDepths: the pipeline read-ahead is a
// real-concurrency knob only — the report (including modeled times), every
// metered service counter and the store contents must be identical at any
// depth, over repeated runs.
func TestBulkIndexingDeterministicAcrossDepths(t *testing.T) {
	docs := bulkTestCorpus()
	type outcome struct {
		rep  IndexReport
		dump tableDump
	}
	var base *outcome
	var baseW *Warehouse
	for _, depth := range []int{1, 2, 4, 16} {
		w, rep := indexCorpus(t, Config{Strategy: index.TwoLUPI, BulkLoad: true, PipelineDepth: depth}, 3, docs)
		o := &outcome{rep: rep, dump: dumpStore(t, w)}
		if base == nil {
			base, baseW = o, w
			continue
		}
		if !reflect.DeepEqual(o.rep, base.rep) {
			t.Errorf("depth %d report %+v differs from depth 1 %+v", depth, o.rep, base.rep)
		}
		bu, wu := baseW.Ledger().Snapshot(), w.Ledger().Snapshot()
		for _, svc := range []string{"dynamodb", "s3", "sqs"} {
			for _, op := range []string{"put", "get", "send", "receive", "delete", "changeVisibility"} {
				if g, want := wu.Get(svc, op), bu.Get(svc, op); g != want {
					t.Errorf("depth %d %s.%s: %+v, want %+v", depth, svc, op, g, want)
				}
			}
		}
		for _, tbl := range index.TwoLUPI.Tables() {
			if len(o.dump[tbl]) != len(base.dump[tbl]) {
				t.Errorf("depth %d: %s item count differs", depth, tbl)
				continue
			}
			for i := range o.dump[tbl] {
				if itemLine(o.dump[tbl][i]) != itemLine(base.dump[tbl][i]) {
					t.Errorf("depth %d: %s item %d differs", depth, tbl, i)
					break
				}
			}
		}
	}
}

// TestSlicedBuildOnRecycledExtractions: the bulk driver releases each
// extraction once the loader has copied it, and the next document is
// extracted into that memory. A sliced build so made, read ahead four deep
// (make check runs this under -race), must leave the store byte for byte as
// a build whose loaders were fed extractions in memory of their own, kept
// until each slice's commit, and in the bulk layout (index.CheckLayout).
func TestSlicedBuildOnRecycledExtractions(t *testing.T) {
	cfg := xmark.DefaultConfig(60)
	cfg.Seed = 5
	cfg.TargetDocBytes = 4 << 10
	docs := xmark.Generate(cfg)
	const slice = 20
	recycled, err := New(Config{Strategy: index.TwoLUPI, BulkLoad: true, PipelineDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Config{Strategy: index.TwoLUPI, BulkLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	fleet := ec2.LaunchFleet(recycled.ledger, ec2.Large, 3)
	for rest := docs; len(rest) > 0; rest = rest[slice:] {
		loader := index.NewBulkLoader(fresh.Store(), index.BulkOptions{})
		for _, d := range rest[:slice] {
			if err := recycled.SubmitDocument(d.URI, d.Data); err != nil {
				t.Fatal(err)
			}
			doc, err := xmltree.Parse(d.URI, d.Data)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := loader.Add(index.Extract(fresh.Strategy, doc, fresh.indexOptions())); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := recycled.IndexCorpusOn(fleet, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := loader.Close(); err != nil {
			t.Fatal(err)
		}
	}
	checkLayout(t, "recycled vs fresh extractions", recycled, fresh)
	got, want := dumpStore(t, recycled), dumpStore(t, fresh)
	for _, tbl := range index.TwoLUPI.Tables() {
		if len(got[tbl]) != len(want[tbl]) {
			t.Fatalf("%s: %d items, want %d", tbl, len(got[tbl]), len(want[tbl]))
		}
		for i := range got[tbl] {
			if g, w := itemLine(got[tbl][i]), itemLine(want[tbl][i]); g != w {
				t.Fatalf("%s item %d:\n got %.200s\nwant %.200s", tbl, i, g, w)
			}
		}
	}
}

// TestBulkIndexingRerunAfterFailure mirrors TestIndexCorpusOnRerunAfterFailure
// for the bulk driver: a failed document commits the documents read before
// it and releases its own message, so a rerun drains the queue immediately
// and, a second commit, packs the rest beside the first commit's items.
func TestBulkIndexingRerunAfterFailure(t *testing.T) {
	w, err := New(Config{Strategy: index.LUP, BulkLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)

	docs := xmark.Paintings()[:6]
	var uris []string
	for _, d := range docs[:3] {
		if _, err := w.files.Put(Bucket, DocKey(d.URI), d.Data, nil); err != nil {
			t.Fatal(err)
		}
		uris = append(uris, d.URI)
	}
	uris = append(uris, "broken.xml")
	if _, err := w.files.Put(Bucket, DocKey("broken.xml"), []byte("<open><mismatch></open>"), nil); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[3:] {
		if _, err := w.files.Put(Bucket, DocKey(d.URI), d.Data, nil); err != nil {
			t.Fatal(err)
		}
		uris = append(uris, d.URI)
	}

	rep1, err := w.IndexCorpusOn(fleet, uris)
	if err == nil {
		t.Fatal("indexing an unparsable document succeeded")
	}
	// The documents read before the failure commit and are deleted; the
	// failing message is released, and the ones after it were never
	// received. No message may be lost or orphaned.
	released := w.Queues().Len(LoaderQueue)
	if rep1.Docs != 3 || rep1.Docs+released != len(uris) {
		t.Fatalf("completed %d + released %d != 3 + 4 of %d submitted (messages lost or leaked)", rep1.Docs, released, len(uris))
	}

	if _, err := w.files.Put(Bucket, DocKey("broken.xml"), docs[0].Data, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := w.IndexCorpusOn(fleet, nil)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if rep.Docs != released {
		t.Errorf("rerun indexed %d documents, want the %d released", rep.Docs, released)
	}
	if n := w.Queues().Len(LoaderQueue); n != 0 {
		t.Errorf("loader queue still holds %d messages", n)
	}

	// The converged store matches a clean per-document load of the same
	// corpus (broken.xml resolving to docs[0]'s data).
	clean, err := New(Config{Strategy: index.LUP})
	if err != nil {
		t.Fatal(err)
	}
	cleanFleet := ec2.LaunchFleet(clean.ledger, ec2.Large, 1)
	var cleanURIs []string
	for _, d := range docs[:3] {
		if _, err := clean.files.Put(Bucket, DocKey(d.URI), d.Data, nil); err != nil {
			t.Fatal(err)
		}
		cleanURIs = append(cleanURIs, d.URI)
	}
	if _, err := clean.files.Put(Bucket, DocKey("broken.xml"), docs[0].Data, nil); err != nil {
		t.Fatal(err)
	}
	cleanURIs = append(cleanURIs, "broken.xml")
	for _, d := range docs[3:] {
		if _, err := clean.files.Put(Bucket, DocKey(d.URI), d.Data, nil); err != nil {
			t.Fatal(err)
		}
		cleanURIs = append(cleanURIs, d.URI)
	}
	if _, err := clean.IndexCorpusOn(cleanFleet, cleanURIs); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "bulk rerun vs clean per-doc", w, clean)
}

// TestSlicedBuildAllocationsSurviveCollections: what a build reuses is its
// warehouse's, not the collector's. The gateable benchmark's index-build
// shape (400 XMark documents of 16 KB, seed 42, 2LUPI, bulk-loaded 40 at a
// time on eight large instances) is built five times into a new warehouse
// as is and five times, in turn, with a collection after every slice; the
// median of the second may allocate at most 1.15 times the first's a
// document. When the bulk loader held its chunks by weak pointer, the
// second read 134 KB a document against 77.
func TestSlicedBuildAllocationsSurviveCollections(t *testing.T) {
	cfg := xmark.DefaultConfig(400)
	cfg.Seed = 42
	cfg.TargetDocBytes = 16 << 10
	docs := xmark.Generate(cfg)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	build := func(docs []xmark.Doc, collect bool) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := New(Config{Strategy: index.TwoLUPI, Seed: 1, BulkLoad: true})
		if err != nil {
			t.Fatal(err)
		}
		fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 8)
		for rest := docs; len(rest) > 0; rest = rest[40:] {
			for _, d := range rest[:40] {
				if err := w.SubmitDocument(d.URI, d.Data); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.IndexCorpusOn(fleet, nil); err != nil {
				t.Fatal(err)
			}
			if collect {
				runtime.GC()
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(docs))
	}
	build(docs[:80], false) // the parser's and the extraction's pools warm up
	var plains, collecteds []float64
	for range 5 {
		plains = append(plains, build(docs, false))
		collecteds = append(collecteds, build(docs, true))
	}
	slices.Sort(plains)
	slices.Sort(collecteds)
	plain, collected := plains[2], collecteds[2]
	t.Logf("%.0f bytes a document, %.0f with a collection after every slice", plain, collected)
	if collected > 1.15*plain {
		t.Errorf("with a collection after every slice a build allocates %.0f bytes a document, want at most 1.15 times %.0f", collected, plain)
	}
}
