package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/cloud/s3"
	"repro/internal/index"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// fetchCorpus returns n small XMark documents and their URIs in sorted
// order, the order of a query's candidate list.
func fetchCorpus(n int) ([]xmark.Doc, []string) {
	cfg := xmark.DefaultConfig(n)
	cfg.TargetDocBytes = 4 << 10
	docs := xmark.Generate(cfg)
	uris := make([]string, len(docs))
	for i, d := range docs {
		uris[i] = d.URI
	}
	sort.Strings(uris)
	return docs, uris
}

// With a pool of two, two documents are in flight at once: the first two
// evaluations wait for each other at a barrier, which only a second worker
// can reach while the first waits. So the caller's goroutine and the
// helper each ran some of the documents, which the count fetchDocuments
// returns (the eval span's docs_on_caller) says, and the helper came to
// claim within the fan-out (the eval span's helper_start_us).
func TestFetchPoolRunsDocumentsInParallel(t *testing.T) {
	docs, uris := fetchCorpus(6)
	w, _ := buildWarehouse(t, Config{Strategy: index.TwoLUPI, QueryWorkers: 2}, docs)
	var arrived sync.WaitGroup
	arrived.Add(2)
	both := make(chan struct{})
	go func() {
		arrived.Wait()
		close(both)
	}()
	results := make([]fetchedDoc, len(uris))
	start := time.Now()
	onCaller, helperStart, err := w.fetchDocuments(uris, nil, nil, results, func(i int, doc *xmltree.Document) {
		if i >= 2 {
			return
		}
		arrived.Done()
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			t.Errorf("document %d waited 10 s for a second document in flight", i)
		}
	})
	fanOut := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.err != nil || r.bytes == 0 {
			t.Errorf("task %d: err %v, %d bytes", i, r.err, r.bytes)
		}
	}
	if onCaller < 1 || onCaller >= len(uris) {
		t.Errorf("the caller ran %d of %d documents, want some and not all", onCaller, len(uris))
	}
	if helperStart <= 0 || helperStart > fanOut {
		t.Errorf("the helper came to claim %v into a fan-out of %v", helperStart, fanOut)
	}
}

// heldFiles holds every fetch of a document after URI position a until a's
// fetch has returned, so a worker that claimed one finishes it only after
// a's failure: however the workers are scheduled, each holds at most one
// document past a when the failure is recorded.
type heldFiles struct {
	fileService
	pos  map[string]int // document key → URI position
	a    int
	done chan struct{} // closed when a's fetch returns
}

func (h *heldFiles) Get(bkt, key string) (s3.Object, time.Duration, error) {
	i, ok := h.pos[key]
	if ok && i > h.a {
		select {
		case <-h.done:
		case <-time.After(10 * time.Second):
			return s3.Object{}, 0, fmt.Errorf("%s fetched 10 s before position %d's fetch returned", key, h.a)
		}
	}
	obj, d, err := h.fileService.Get(bkt, key)
	if ok && i == h.a {
		close(h.done)
	}
	return obj, d, err
}

// A query whose candidates at URI positions a < b have lost their files
// fails with a's error at every pool size. Once a task has failed no worker
// claims another, so the step bills the a fetches before it and at most the
// one document past a that each other worker holds (heldFiles), plus one
// for a claim that races the failure's store; and the pool's goroutines are
// gone when the query returns.
func TestFetchFailureStopsClaims(t *testing.T) {
	const text = `//site` // every document is a candidate
	const a, b = 3, 9
	docs, uris := fetchCorpus(24)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			w, _ := buildWarehouse(t, Config{Strategy: index.TwoLUPI, QueryWorkers: workers}, docs)
			in := ec2.Launch(w.ledger, ec2.XL)
			ask := func() (QueryStats, error) {
				msg := queryMessage{ID: w.nextQueryID(), Query: text, Strategy: w.Strategy.Name()}
				return w.processQuery(in, msg, nil, nil)
			}
			if stats, err := ask(); err != nil || stats.DocsFetched != len(uris) {
				t.Fatalf("intact corpus: %d of %d documents fetched, err %v", stats.DocsFetched, len(uris), err)
			}
			for _, i := range []int{a, b} {
				if _, err := w.files.Delete(Bucket, DocKey(uris[i])); err != nil {
					t.Fatal(err)
				}
			}
			pos := make(map[string]int, len(uris))
			for i, u := range uris {
				pos[DocKey(u)] = i
			}
			w.files = &heldFiles{fileService: w.files, pos: pos, a: a, done: make(chan struct{})}
			goroutines := runtime.NumGoroutine()
			gets := w.ledger.Snapshot().Get(s3.Backend, "get").Calls
			_, err := ask()
			if !errors.Is(err, s3.ErrNoSuchKey) || !strings.Contains(err.Error(), DocKey(uris[a])) {
				t.Errorf("query failed with %v, want %s's %v", err, DocKey(uris[a]), s3.ErrNoSuchKey)
			}
			if billed := w.ledger.Snapshot().Get(s3.Backend, "get").Calls - gets; billed < a || billed > int64(a+workers) {
				t.Errorf("step 13 billed %d S3 gets, want %d to %d", billed, a, a+workers)
			}
			// A helper is counted until it has exited, a moment after the
			// pool's wait returned.
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%d goroutines after the query, %d before", n, goroutines)
			}
		})
	}
}
