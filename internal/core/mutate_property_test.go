package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/mutate"
	"repro/internal/xmark"
)

// Property tests of the mutable corpus over seeded random interleavings of
// inserts, updates, removals, compactions and pinned-snapshot queries. The
// obligations:
//
//  1. Snapshot correctness: every answer served through a pinned view must
//     equal the answer of a from-scratch immutable warehouse built with
//     exactly the content that was live at the pinned version — no matter
//     how many mutations and partial compactions happened since the pin.
//
//  2. Compaction transparency: queries running against a pinned view while
//     a background writer updates documents and the compactor folds the
//     buffer must keep returning byte-identical rows, race-clean.
//
//  3. Cache freshness under sharded deletes: a warmed posting cache on a
//     hash-partitioned warehouse must never serve postings of a removed
//     document.

// stampDoc returns document content carrying a unique revision marker as a
// child of the root element, so every revision indexes differently and
// parses on every document class.
func stampDoc(t *testing.T, data []byte, rev int) []byte {
	t.Helper()
	i := strings.IndexByte(string(data), '>')
	if i < 0 {
		t.Fatal("document has no root element")
	}
	note := fmt.Sprintf("<note>rev%d zanzibar</note>", rev)
	out := make([]byte, 0, len(data)+len(note))
	out = append(out, data[:i+1]...)
	out = append(out, note...)
	return append(out, data[i+1:]...)
}

// answerRowsView runs one query pinned to an explicit snapshot view and
// returns its sorted rendered rows.
func answerRowsView(t *testing.T, w *Warehouse, in *ec2.Instance, text string, view *mutate.View) []string {
	t.Helper()
	res, _, err := w.RunQueryOnView(in, text, view)
	if err != nil {
		t.Fatalf("%s @v%d: %v", text, view.Version(), err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprintf("%s|%v", r.URI, r.Cols)
	}
	sort.Strings(rows)
	return rows
}

// docsFromContent renders a live-content map as a deterministic corpus for
// a from-scratch rebuild.
func docsFromContent(content map[string][]byte) []xmark.Doc {
	uris := make([]string, 0, len(content))
	for u := range content {
		uris = append(uris, u)
	}
	sort.Strings(uris)
	docs := make([]xmark.Doc, len(uris))
	for i, u := range uris {
		docs[i] = xmark.Doc{URI: u, Data: content[u]}
	}
	return docs
}

// TestMutableSnapshotPropertyInterleavings drives a mutable warehouse
// through a seeded random interleaving of updates, re-inserts, removals
// and compaction passes, pinning snapshot views along the way while
// mirroring the live content in plain maps. Every pinned view must then
// answer ten random queries identically to an immutable warehouse rebuilt
// from scratch with that version's content — and after releasing the pins
// and compacting the buffer dry, the current-version answers must match
// the final rebuild too.
func TestMutableSnapshotPropertyInterleavings(t *testing.T) {
	docs := propertyCorpus(101)
	w, err := New(Config{Strategy: index.TwoLUPI, MutableCorpus: true, PostingCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	in := ec2.Launch(w.ledger, ec2.XL)

	content := map[string][]byte{}
	apply := func(uri string, data []byte) {
		t.Helper()
		if err := w.UpdateDocument(in, uri, data); err != nil {
			t.Fatal(err)
		}
		content[uri] = data
	}
	for _, d := range docs {
		apply(d.URI, d.Data)
	}

	type snapshot struct {
		view    *mutate.View
		content map[string][]byte
	}
	var snaps []snapshot
	pin := func() {
		frozen := make(map[string][]byte, len(content))
		for u, b := range content {
			frozen[u] = b
		}
		snaps = append(snaps, snapshot{w.Corpus().Pin(), frozen})
	}
	pin()

	rng := rand.New(rand.NewSource(4242))
	rev := 2
	for op := 0; op < 36; op++ {
		switch rng.Intn(8) {
		case 4, 5: // remove a live document, if any remain
			live := docsFromContent(content)
			if len(live) == 0 {
				continue
			}
			uri := live[rng.Intn(len(live))].URI
			if err := w.RemoveDocument(in, uri); err != nil {
				t.Fatal(err)
			}
			delete(content, uri)
		case 6: // fold whatever the pins allow
			if _, err := w.CompactNow(in); err != nil {
				t.Fatal(err)
			}
		default: // update a live document or re-insert a removed one
			d := docs[rng.Intn(len(docs))]
			apply(d.URI, stampDoc(t, d.Data, rev))
			rev++
		}
		if op%6 == 5 {
			pin()
		}
	}
	pin()

	qrng := rand.New(rand.NewSource(99))
	texts := make([]string, 10)
	for i := range texts {
		texts[i] = randomQueryText(t, qrng)
	}

	nonEmpty := 0
	var finalWant [][]string
	for si, snap := range snaps {
		rw, _ := buildWarehouse(t, Config{Strategy: index.TwoLUPI}, docsFromContent(snap.content))
		rin := ec2.Launch(rw.ledger, ec2.XL)
		for qi, text := range texts {
			want, _ := answerRows(t, rw, rin, text)
			got := answerRowsView(t, w, in, text, snap.view)
			if len(want) > 0 {
				nonEmpty++
			}
			if len(got) != len(want) {
				t.Errorf("snapshot %d v%d %q: rebuild %d rows, view %d",
					si, snap.view.Version(), text, len(want), len(got))
				continue
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("snapshot %d v%d %q row %d: rebuild %q, view %q",
						si, snap.view.Version(), text, j, want[j], got[j])
					break
				}
			}
			if si == len(snaps)-1 {
				finalWant = append(finalWant, want)
				_ = qi
			}
		}
	}
	if nonEmpty < 8 {
		t.Fatalf("only %d snapshot queries matched anything; generator too hostile", nonEmpty)
	}

	// Release every pin, compact the buffer dry, and confirm the current
	// (auto-pinned) read path over the fully folded store still agrees
	// with the final rebuild.
	for _, snap := range snaps {
		snap.view.Release()
	}
	compactFully(t, w, in)
	for qi, text := range texts {
		got, _ := answerRows(t, w, in, text)
		want := finalWant[qi]
		if len(got) != len(want) {
			t.Errorf("post-compaction %q: rebuild %d rows, got %d", text, len(want), len(got))
			continue
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("post-compaction %q row %d: rebuild %q, got %q", text, j, want[j], got[j])
				break
			}
		}
	}
}

// TestCompactionQueryInterference pins a snapshot, records baseline
// answers, then lets a background writer rewrite every document over
// several revisions while the compactor folds the buffer — all while the
// pinned view keeps being queried. Every mid-churn answer must be
// byte-identical to the baseline, and once the churn ends and the pin is
// released, the current-version answers must match a from-scratch rebuild
// of the final revision. Run under -race this is also the data-race proof
// for concurrent mutation, compaction and snapshot reads.
func TestCompactionQueryInterference(t *testing.T) {
	docs := propertyCorpus(555)
	w, err := New(Config{
		Strategy:          index.TwoLUPI,
		MutableCorpus:     true,
		CompactEveryDocs:  5,
		PostingCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := ec2.Launch(w.ledger, ec2.XL)
	for _, d := range docs {
		if err := w.UpdateDocument(in, d.URI, d.Data); err != nil {
			t.Fatal(err)
		}
	}

	view := w.Corpus().Pin()
	// Collect six query texts, at least three with non-empty answers (the
	// random generator produces many queries that match nothing; those are
	// kept too, but capped, so the baseline actually pins postings).
	rng := rand.New(rand.NewSource(31))
	var texts []string
	baseline := map[string][]string{}
	nonEmpty, empty := 0, 0
	for trial := 0; trial < 400 && nonEmpty < 3; trial++ {
		text := randomQueryText(t, rng)
		rows := answerRowsView(t, w, in, text, view)
		if len(rows) > 0 {
			nonEmpty++
		} else if empty >= 3 {
			continue
		} else {
			empty++
		}
		texts = append(texts, text)
		baseline[text] = rows
	}
	if nonEmpty < 3 {
		t.Fatalf("only %d baseline queries matched anything", nonEmpty)
	}

	const lastRev = 5
	done := make(chan struct{})
	go func() {
		defer close(done)
		win := ec2.Launch(w.ledger, ec2.Large)
		for rev := 2; rev <= lastRev; rev++ {
			for _, d := range docs {
				if err := w.UpdateDocument(win, d.URI, stampDoc(t, d.Data, rev)); err != nil {
					t.Errorf("churn rev %d %s: %v", rev, d.URI, err)
					return
				}
			}
			if _, err := w.CompactNow(win); err != nil {
				t.Errorf("churn compact rev %d: %v", rev, err)
				return
			}
		}
	}()

	check := func(when string) {
		t.Helper()
		for _, text := range texts {
			got := answerRowsView(t, w, in, text, view)
			want := baseline[text]
			if len(got) != len(want) {
				t.Fatalf("%s %q: baseline %d rows, pinned view now %d", when, text, len(want), len(got))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s %q row %d: baseline %q, pinned view %q", when, text, j, want[j], got[j])
				}
			}
		}
	}
	churning := true
	for churning {
		select {
		case <-done:
			churning = false
		default:
			check("mid-churn")
		}
	}
	check("post-churn")
	view.Release()
	compactFully(t, w, in)

	final := map[string][]byte{}
	for _, d := range docs {
		final[d.URI] = stampDoc(t, d.Data, lastRev)
	}
	rw, _ := buildWarehouse(t, Config{Strategy: index.TwoLUPI}, docsFromContent(final))
	rin := ec2.Launch(rw.ledger, ec2.XL)
	for _, text := range texts {
		want, _ := answerRows(t, rw, rin, text)
		got, _ := answerRows(t, w, in, text)
		if len(got) != len(want) {
			t.Errorf("final %q: rebuild %d rows, mutable %d", text, len(want), len(got))
			continue
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("final %q row %d: rebuild %q, mutable %q", text, j, want[j], got[j])
				break
			}
		}
	}
}

// TestShardedDeletePostingCacheFreshness is the regression wall for the
// posting cache on a hash-partitioned mutable warehouse: after the cache
// is warmed, removing a document must make its rows vanish from the very
// next answer (version-keyed cache entries for the old version must not
// leak into the new one), compaction must not resurrect them, and
// re-inserting the original content must restore the original answer
// byte for byte.
func TestShardedDeletePostingCacheFreshness(t *testing.T) {
	docs := propertyCorpus(333)
	w, err := New(Config{
		Strategy:          index.TwoLUPI,
		IndexShards:       4,
		MutableCorpus:     true,
		PostingCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := ec2.Launch(w.ledger, ec2.XL)
	byURI := map[string][]byte{}
	for _, d := range docs {
		if err := w.UpdateDocument(in, d.URI, d.Data); err != nil {
			t.Fatal(err)
		}
		byURI[d.URI] = d.Data
	}

	// Find a random query whose answer spans at least two documents, so
	// removing one leaves a non-empty remainder.
	rng := rand.New(rand.NewSource(17))
	var text string
	var base []string
	for trial := 0; trial < 200 && text == ""; trial++ {
		cand := randomQueryText(t, rng)
		rows, _ := answerRows(t, w, in, cand)
		uris := map[string]bool{}
		for _, r := range rows {
			uris[r[:strings.IndexByte(r, '|')]] = true
		}
		if len(uris) >= 2 {
			text, base = cand, rows
		}
	}
	if text == "" {
		t.Fatal("no random query spanned two documents")
	}

	// Warm pass: same version, so the second run must serve from cache.
	h0, _, _ := w.PostingCache().Counters()
	again, _ := answerRows(t, w, in, text)
	if h1, _, _ := w.PostingCache().Counters(); h1 <= h0 {
		t.Errorf("warm re-run served no posting-cache hits (%d -> %d)", h0, h1)
	}
	for j := range base {
		if again[j] != base[j] {
			t.Fatalf("warm re-run changed row %d: %q -> %q", j, base[j], again[j])
		}
	}

	victim := base[0][:strings.IndexByte(base[0], '|')]
	var want []string
	for _, r := range base {
		if !strings.HasPrefix(r, victim+"|") {
			want = append(want, r)
		}
	}
	if err := w.RemoveDocument(in, victim); err != nil {
		t.Fatal(err)
	}

	assertRows := func(when string) {
		t.Helper()
		got, _ := answerRows(t, w, in, text)
		if len(got) != len(want) {
			t.Fatalf("%s: want %d rows after removing %s, got %d: %v", when, len(want), victim, len(got), got)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s row %d: want %q, got %q", when, j, want[j], got[j])
			}
		}
	}
	assertRows("straight after removal")
	if _, err := w.CompactNow(in); err != nil {
		t.Fatal(err)
	}
	assertRows("after compaction")

	// Resurrection: re-inserting the identical content restores the
	// original answer exactly.
	if err := w.UpdateDocument(in, victim, byURI[victim]); err != nil {
		t.Fatal(err)
	}
	got, _ := answerRows(t, w, in, text)
	if len(got) != len(base) {
		t.Fatalf("after re-insert: want %d rows, got %d", len(base), len(got))
	}
	for j := range base {
		if got[j] != base[j] {
			t.Fatalf("after re-insert row %d: want %q, got %q", j, base[j], got[j])
		}
	}
}

// TestTombstoneFoldMovesPostingCacheStamp is the four-step sequence that
// the gateable benchmark's mixed read/write walk ran into: on a mutable
// warehouse with the posting cache on, remove D, insert a new document E
// that shares D's keys, query, compact, query again. The first query caches
// every key's postings — D's items still among them, its tombstone being
// subtracted on the way out — under the stamp of E's replace entry. The
// fold retires the tombstone; were the keys' stamp still E's version, the
// second query would hit those postings, take D for a candidate and fail
// with "D absent at corpus version N".
func TestTombstoneFoldMovesPostingCacheStamp(t *testing.T) {
	docs := propertyCorpus(333)
	w, err := New(Config{
		Strategy:          index.TwoLUPI,
		MutableCorpus:     true,
		PostingCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := ec2.Launch(w.ledger, ec2.XL)
	for _, d := range docs {
		if err := w.UpdateDocument(in, d.URI, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.CompactNow(in); err != nil {
		t.Fatal(err)
	}
	const text = `//item[/name{val}]`
	base, _ := answerRows(t, w, in, text)
	victim := base[0][:strings.IndexByte(base[0], '|')]
	var victimData []byte
	for _, d := range docs {
		if d.URI == victim {
			victimData = d.Data
		}
	}
	const twin = "twin-of-the-removed.xml"
	var want []string
	for _, r := range base {
		if rest, ok := strings.CutPrefix(r, victim+"|"); ok {
			r = twin + "|" + rest
		}
		want = append(want, r)
	}
	sort.Strings(want)

	if err := w.RemoveDocument(in, victim); err != nil {
		t.Fatal(err)
	}
	if err := w.UpdateDocument(in, twin, victimData); err != nil {
		t.Fatal(err)
	}
	for _, when := range []string{"tombstone live", "tombstone folded", "warm after the fold"} {
		if when == "tombstone folded" {
			if _, err := w.CompactNow(in); err != nil {
				t.Fatal(err)
			}
		}
		got, _ := answerRows(t, w, in, text)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %v, want %v", when, got, want)
		}
	}
}
