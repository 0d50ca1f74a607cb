package index

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// extractStep is one extraction of a sequence and the reference's answer.
type extractStep struct {
	doc  *xmltree.Document
	s    Strategy
	opts Options
	want *Extraction
	// oversized marks the step whose path values outgrow maxPooledBytes.
	oversized bool
}

// reuseSequence is a run of very different documents (a 64 KB XMark
// document, thousands of levels of nesting, the same a thousand levels deep
// under 2LUPI, whose paths take 1.5 MB, the paintings, the edge table, the
// XMark document again), each extracted under several strategies and
// SkipWords settings in turn: LU and LUP log no identifiers, LU and LUI
// record no prefixes, and SkipWords leaves the word table unused, so every
// part of the collector and of a pooled extraction sits out some steps and
// serves the next.
func reuseSequence(t *testing.T) []extractStep {
	t.Helper()
	levels := 10_000
	if testing.Short() {
		levels = 300
	}
	cfg := xmark.DefaultConfig(20)
	cfg.TargetDocBytes = 64 << 10
	gd := xmark.GenerateDoc(cfg, 3)
	big, deep := parseDoc(t, gd.URI, string(gd.Data)), parseDoc(t, "deep", deepDocument(levels))
	oversized := parseDoc(t, "1k deep", deepDocument(1000))
	docs := []*xmltree.Document{big, deep, oversized}
	for _, p := range xmark.Paintings() {
		docs = append(docs, parseDoc(t, p.URI, string(p.Data)))
	}
	for _, e := range edgeDocuments() {
		docs = append(docs, parseDoc(t, e.name, e.src))
	}
	docs = append(docs, big)

	type combo struct {
		s         Strategy
		skipWords bool
	}
	combos := []combo{{TwoLUPI, false}, {LU, true}, {LUP, false}, {LUI, true}, {TwoLUPI, true}, {LUP, true}, {LUI, false}, {LU, false}}
	// The deep document has 10k paths of up to 30 KB under one key: only the
	// strategies that store no paths take it, and the reference skips them.
	pathless := []combo{{LUI, false}, {LU, false}}

	type walk struct {
		doc       *xmltree.Document
		skipWords bool
	}
	walks := make(map[walk]map[string]*keyInfo)
	var steps []extractStep
	for _, doc := range docs {
		run := combos
		switch doc {
		case deep:
			run = pathless
		case oversized:
			run = []combo{{TwoLUPI, false}}
		}
		for _, c := range run {
			w := walk{doc, c.skipWords}
			infos, ok := walks[w]
			if !ok {
				infos = collectReference(doc, c.skipWords, doc != deep)
				walks[w] = infos
			}
			opts := Options{BinaryIDs: true, SkipWords: c.skipWords}
			steps = append(steps, extractStep{doc, c.s, opts, assembleReference(c.s, doc.URI, infos, opts), doc == oversized})
		}
	}
	return steps
}

// pooledCollectorIsEmpty takes a collector from the pool and reports whether
// it holds nothing: no key, prefix, pair, link or logged identifier.
func pooledCollectorIsEmpty() bool {
	c := collectorPool.Get().(*collector)
	defer collectorPool.Put(c)
	return len(c.elems)+len(c.attrs)+len(c.words)+len(c.attrVals)+len(c.seen) == 0 &&
		len(c.keys)+len(c.keyBuf)+len(c.prefixBuf)+len(c.prefixEnd)+len(c.open)+len(c.links)+c.pathBytes == 0 &&
		len(c.log)+len(c.dealt)+len(c.sorted) == 0 &&
		!slices.ContainsFunc(c.sorted[:cap(c.sorted)], func(k sortedKey) bool { return k.key != "" })
}

// largestBuffer is the byte size of m's largest buffer.
func (m *extractMem) largestBuffer() int {
	return max(bytesOf(m.entries), bytesOf(m.none), bytesOf(m.pathVals), bytesOf(m.idVals),
		bytesOf(m.paths), bytesOf(m.ids), bytesOf(m.keys))
}

// pooledExtractionIsEmpty takes an extraction's memory from the pool and
// reports whether it holds nothing: no table, entry, value or key, zeroed
// room behind them, and no buffer larger than maxPooledBytes.
func pooledExtractionIsEmpty() bool {
	m := extractPool.Get().(*extractMem)
	defer extractPool.Put(m)
	zeroed := func(values [][]byte) bool {
		return !slices.ContainsFunc(values[:cap(values)], func(v []byte) bool { return v != nil })
	}
	return m.ex.URI == "" && len(m.ex.Tables)+m.ex.Entries+int(m.ex.Bytes) == 0 && m.ex.mem == nil &&
		len(m.entries)+len(m.none)+len(m.pathVals)+len(m.idVals)+len(m.paths)+len(m.ids)+len(m.keys) == 0 &&
		!slices.ContainsFunc(m.entries[:cap(m.entries)], func(e Entry) bool { return e.Key != "" || e.Values != nil }) &&
		zeroed(m.none) && zeroed(m.pathVals) && zeroed(m.idVals) &&
		m.largestBuffer() <= maxPooledBytes
}

// sameExtraction reports whether got reads as want, whatever memory it is in.
func sameExtraction(got, want *Extraction) bool {
	g := *got
	g.mem = nil
	return reflect.DeepEqual(&g, want)
}

// runSequence extracts every step in order into pooled memory, released
// after each step, and returns the first difference from the reference, or
// from an empty pooled collector and extraction between steps. With reuse
// set, every step must take the memory the step before it released.
func runSequence(steps []extractStep, reuse bool) error {
	var last *extractMem
	for i, st := range steps {
		at := fmt.Sprintf("step %d, %s %s skipWords=%v", i, st.doc.URI, st.s.Name(), st.opts.SkipWords)
		got := ExtractPooled(st.s, st.doc, st.opts)
		if !sameExtraction(got, st.want) {
			return fmt.Errorf("%s: extraction differs from the reference", at)
		}
		if reuse && last != nil && got.mem != last {
			return fmt.Errorf("%s: the extraction did not reuse the memory the step before released", at)
		}
		if big := got.mem.largestBuffer(); st.oversized != (big > maxPooledBytes) {
			return fmt.Errorf("%s: largest buffer %d bytes, oversized=%v", at, big, st.oversized)
		}
		last = got.mem
		got.Release()
		if !pooledCollectorIsEmpty() {
			return fmt.Errorf("%s: a pooled collector holds state", at)
		}
		if !pooledExtractionIsEmpty() {
			return fmt.Errorf("%s: a pooled extraction holds state or more than %d bytes in a buffer", at, maxPooledBytes)
		}
	}
	return nil
}

// TestExtractReusedStateMatchesReference: ExtractPooled reuses its
// collector's tables and slices, and Release the extraction's buffers,
// across documents, so no extraction may see what the one before it left.
// One goroutine runs the sequence, every step in the memory the step before
// released (the race detector's pool drops a quarter of what is put back,
// so there only the answers are checked), then eight run it at once (make
// check runs this under -race).
func TestExtractReusedStateMatchesReference(t *testing.T) {
	steps := reuseSequence(t)
	// One P, so that what a step puts back is in the pool the next step
	// takes from.
	procs := runtime.GOMAXPROCS(1)
	err := runSequence(steps, !raceEnabled)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = runSequence(steps, false)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestExtractPoolDoesNotPinDocument: the collector goes back to the pool
// when Extract returns, and its word and attribute-value tables were keyed
// by the document's text; cleared, they keep nothing of it. The document is
// 4 MB of text in a handful of distinct words, so its collector is small
// enough to be pooled. The control keeps the document alive and must see
// it retained, which shows the measurement can fail.
func TestExtractPoolDoesNotPinDocument(t *testing.T) {
	const textBytes = 4 << 20
	// The parse copies the attribute value and the text out of src into
	// one buffer of the document, so src, live throughout, is in every
	// reading and the document in none but a kept one's.
	src := []byte(`<r><p lang="la">` + strings.Repeat("lorem ipsum dolor sit amet ", textBytes/27) + "</p></r>")
	retained := func(keep bool) int64 {
		var before, after runtime.MemStats
		// Twice: what earlier tests left in the pools goes with the second.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		// The document is made on a goroutine of its own, so no stack slot
		// of this one can hold it once it is dropped.
		done := make(chan *xmltree.Document)
		go func() {
			doc, err := xmltree.Parse("big.xml", src)
			if err != nil || Extract(TwoLUPI, doc, DefaultOptions()).Entries == 0 {
				t.Errorf("the document did not parse and extract: %v", err)
			}
			if !keep {
				doc = nil
			}
			done <- doc
		}()
		kept := <-done
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(kept)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	pinned, dropped := retained(true), retained(false)
	runtime.KeepAlive(src)
	t.Logf("bytes retained of a %d-byte text: %d with the document kept, %d dropped", textBytes, pinned, dropped)
	if pinned < textBytes/2 {
		t.Fatalf("a kept document retained %d of its %d bytes: the measurement no longer sees a live document", pinned, textBytes)
	}
	if dropped > textBytes/16 {
		t.Fatalf("a dropped document retained %d of its %d bytes", dropped, textBytes)
	}
}
