package mutate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/kv"
	"repro/internal/index"
)

// versionRecord is one version of one document as the test applied it: the
// items ExtractionItems gives for the content, or nil for a removal.
type versionRecord struct {
	ver   uint64
	items map[string][]kv.Item
}

// foldOracle drives a corpus and records, independently of it, every
// version it applied and the horizon of the last pass that succeeded.
type foldOracle struct {
	t      *testing.T
	c      *Corpus
	store  kv.Store
	opts   index.Options
	vers   map[string][]versionRecord
	folded uint64
}

func (o *foldOracle) apply(uri string, data []byte) {
	o.t.Helper()
	ex := extractDoc(o.t, o.opts, uri, data)
	res := o.c.Apply(ex, data)
	if !res.Changed {
		o.t.Fatalf("apply %s: no change", uri)
	}
	o.vers[uri] = append(o.vers[uri], versionRecord{ver: res.Version, items: index.ExtractionItems(o.store.Limits(), ex)})
}

func (o *foldOracle) remove(uri string) {
	o.t.Helper()
	ver, ok := o.c.Remove(uri)
	if !ok {
		o.t.Fatalf("remove %s: not present", uri)
	}
	o.vers[uri] = append(o.vers[uri], versionRecord{ver: ver})
}

// want is the owner's items under the unit's key at the newest version at
// or below the last successful pass's horizon.
func (o *foldOracle) want(u kv.FoldUnit) []kv.Item {
	var newest *versionRecord
	for i, v := range o.vers[u.Owner] {
		if v.ver <= o.folded {
			newest = &o.vers[u.Owner][i]
		}
	}
	if newest == nil {
		return nil
	}
	var out []kv.Item
	for _, it := range newest.items[u.Table] {
		if it.HashKey == u.HashKey {
			out = append(out, it)
		}
	}
	return out
}

// check takes the fold work the next pass would do and holds every unit's
// base to the oracle and, when the store is known to hold exactly the last
// pass's fold, to the owner's items the main store returns for the key. It
// returns how many units had a non-empty base.
func (o *foldOracle) check(name string, storeSettled bool) int {
	o.t.Helper()
	o.c.mu.Lock()
	horizon := o.c.horizonLocked()
	o.c.mu.Unlock()
	units := o.c.delta.Pending(horizon)
	if len(units) == 0 {
		o.t.Fatalf("%s: no fold work at horizon %d", name, horizon)
	}
	bases, _ := o.c.foldBases(units)
	nonEmpty := 0
	for i, u := range units {
		want := o.want(u)
		if !itemsEqual(bases[i], want) {
			o.t.Fatalf("%s: unit (%s, %q, %s) at %d: base %d items, want the %d of the newest version at or below %d",
				name, u.Table, u.HashKey, u.Owner, u.Entry.Version, len(bases[i]), len(want), o.folded)
		}
		if len(want) > 0 {
			nonEmpty++
		}
		if !storeSettled {
			continue
		}
		stored, _, err := kv.Get(context.Background(), o.store, u.Table, u.HashKey)
		if err != nil {
			o.t.Fatal(err)
		}
		held := map[string]kv.Item{}
		for _, it := range stored {
			if len(it.Attrs) > 0 && it.Attrs[0].Name == u.Owner {
				held[it.RangeKey] = it
			}
		}
		if len(held) != len(want) {
			o.t.Fatalf("%s: unit (%s, %q, %s): the store holds %d items, the base has %d", name, u.Table, u.HashKey, u.Owner, len(held), len(want))
		}
		for _, it := range want {
			if !itemEqual(held[it.RangeKey], it) {
				o.t.Fatalf("%s: unit (%s, %q, %s): the store's item %q differs from the base's", name, u.Table, u.HashKey, u.Owner, it.RangeKey)
			}
		}
	}
	return nonEmpty
}

func (o *foldOracle) compact(name string) {
	o.t.Helper()
	st, err := o.c.Compact()
	if err != nil {
		o.t.Fatalf("%s: %v", name, err)
	}
	o.folded = st.Horizon
}

// Every unit of a pass diffs against the owner's items at the newest
// version at or below the previous pass's horizon: what the main store
// holds for it. Updates twice over before a fold, a removal and
// re-insert, a pass a pinned view holds below a newer update, and a pass
// that fails part-way through a batch (which must not advance the base)
// all keep to it, and the store ends byte-identical to a direct build.
func TestFoldBaseIsNewestFoldedVersion(t *testing.T) {
	docs := corpusDocs(t, 3)
	inj := chaos.NewInjector(chaos.Plan{Seed: 5})
	store := chaos.WrapStore(newTestStore(t), inj)
	o := &foldOracle{t: t, c: NewCorpus(store, Options{}), store: store, opts: index.OptionsFor(store), vers: map[string][]versionRecord{}}
	final := map[string][]byte{}
	for _, d := range docs {
		o.apply(d.URI, d.Data)
		final[d.URI] = d.Data
	}
	if n := o.check("first inserts", true); n != 0 {
		t.Fatalf("first inserts: %d units have a base before anything folded", n)
	}
	o.compact("first inserts")

	// Update, then update again before the fold.
	once := mutateDoc(t, docs[0].Data)
	twice := mutateDoc(t, once)
	o.apply(docs[0].URI, once)
	o.apply(docs[0].URI, twice)
	final[docs[0].URI] = twice
	if o.check("update twice", true) == 0 {
		t.Fatal("update twice: no unit diffs against the folded version")
	}
	o.compact("update twice")

	// Remove, then re-insert.
	o.remove(docs[1].URI)
	o.apply(docs[1].URI, docs[1].Data)
	if o.check("remove and re-insert", true) == 0 {
		t.Fatal("remove and re-insert: no unit diffs against the folded version")
	}
	o.compact("remove and re-insert")

	// A pass a pinned view holds below a newer update: the next pass diffs
	// against what the held pass folded, not the newest version.
	held := mutateDoc(t, docs[2].Data)
	o.apply(docs[2].URI, held)
	view := o.c.Pin()
	newer := mutateDoc(t, held)
	o.apply(docs[2].URI, newer)
	final[docs[2].URI] = newer
	o.compact("held pass")
	if o.folded != view.Version() {
		t.Fatalf("held pass ran at horizon %d, want the pinned %d", o.folded, view.Version())
	}
	view.Release()
	if o.check("after the held pass", true) == 0 {
		t.Fatal("after the held pass: no unit diffs against the held fold")
	}
	o.compact("after the held pass")

	// A pass that fails part-way through a batch lands some writes and
	// retires nothing: the base stays at the previous horizon.
	o.apply(docs[0].URI, docs[0].Data)
	o.remove(docs[2].URI)
	final[docs[0].URI] = docs[0].Data
	delete(final, docs[2].URI)
	before := o.check("before the failed pass", true)
	inj.SetRates(chaos.Rates{PartialBatch: 1})
	if _, err := o.c.Compact(); err == nil {
		t.Fatal("a pass with every batch partial succeeded")
	}
	inj.SetRates(chaos.Rates{})
	if got := o.check("after the failed pass", false); got != before {
		t.Fatalf("after the failed pass: %d units have a base, %d before it", got, before)
	}
	o.compact("re-run")
	if n := o.c.BufferedEntries(); n != 0 {
		t.Fatalf("%d buffer entries remain after the re-run", n)
	}

	direct := newTestStore(t)
	for _, d := range docs {
		if data, ok := final[d.URI]; ok {
			if _, _, err := index.WriteExtraction(direct, extractDoc(t, o.opts, d.URI, data)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, want := dump(t, store), dump(t, direct)
	for tbl := range want {
		if len(got[tbl]) != len(want[tbl]) {
			t.Fatalf("table %s: %d items, want %d", tbl, len(got[tbl]), len(want[tbl]))
		}
		for i := range want[tbl] {
			if got[tbl][i] != want[tbl][i] {
				t.Fatalf("table %s item %d differs:\n got %q\nwant %q", tbl, i, got[tbl][i], want[tbl][i])
			}
		}
	}
}

// lostReplyStore applies every write and, while armed, reports the first
// one failed, as a write whose reply is lost does; then it disarms.
type lostReplyStore struct {
	kv.Store
	armed bool
}

func (s *lostReplyStore) fail(d time.Duration, err error) (time.Duration, error) {
	if err == nil && s.armed {
		s.armed = false
		return d, errors.New("reply lost")
	}
	return d, err
}

func (s *lostReplyStore) BatchPut(table string, items []kv.Item) (time.Duration, error) {
	return s.fail(s.Store.BatchPut(table, items))
}

func (s *lostReplyStore) BatchDelete(table string, keys []kv.Key) (time.Duration, error) {
	return s.fail(s.Store.BatchDelete(table, keys))
}

// A pass that fails after some of its writes landed, followed by a
// version that undoes them before the next pass, must still end in the
// store a direct build gives: the next pass deletes the items the failed
// one put (a document grown, then shrunk back) and re-puts the items it
// deleted (a document shrunk, then grown back), although the base still
// holds the first version and the newest version equals it.
func TestFailedPassWritesDoNotSurvive(t *testing.T) {
	grown := func() string {
		var b strings.Builder
		b.WriteString(`<r><x a="1"/>`)
		for i := 0; i < 6000; i++ {
			fmt.Fprintf(&b, `<x%d a="1"/>`, i)
		}
		b.WriteString("</r>")
		return b.String()
	}()
	for _, tc := range []struct{ name, first, failed string }{
		{"grown then shrunk back", `<r><x a="1"/></r>`, grown},
		{"shrunk then grown back", `<r><x a="1"/><y b="2"><z/></y></r>`, `<r><x a="1"/></r>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := newTestStore(t)
			store := &lostReplyStore{Store: base}
			c := NewCorpus(store, Options{})
			opts := index.OptionsFor(base)
			apply := func(uri, data string) {
				t.Helper()
				c.Apply(extractDoc(t, opts, uri, []byte(data)), []byte(data))
			}
			apply("d.xml", tc.first)
			apply("e.xml", `<r><x a="3"/></r>`)
			if _, err := c.Compact(); err != nil {
				t.Fatal(err)
			}
			apply("d.xml", tc.failed)
			store.armed = true
			if _, err := c.Compact(); err == nil {
				t.Fatal("the pass with a lost reply succeeded")
			}
			apply("d.xml", tc.first)
			if _, err := c.Compact(); err != nil {
				t.Fatal(err)
			}
			if n := c.BufferedEntries(); n != 0 {
				t.Fatalf("%d buffer entries remain", n)
			}

			direct := newTestStore(t)
			for uri, data := range map[string]string{"d.xml": tc.first, "e.xml": `<r><x a="3"/></r>`} {
				if _, _, err := index.WriteExtraction(direct, extractDoc(t, opts, uri, []byte(data))); err != nil {
					t.Fatal(err)
				}
			}
			got, want := dump(t, base), dump(t, direct)
			for _, tbl := range base.Tables() {
				if !slices.Equal(got[tbl], want[tbl]) {
					t.Fatalf("table %s: %d items, a direct build has %d", tbl, len(got[tbl]), len(want[tbl]))
				}
			}
		})
	}
}
