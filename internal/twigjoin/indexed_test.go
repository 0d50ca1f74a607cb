package twigjoin

import (
	"testing"

	"repro/internal/idblock"
	"repro/internal/pattern"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// toIndexed converts decoded streams to blocked sets by a full
// encode/parse/merge round trip with a small block size, so multi-block
// skipping is exercised even on small documents. Empty streams are left out
// of the map — MatchIndexed must treat missing streams as empty.
func toIndexed(t *testing.T, streams Streams, blockSize int) IndexedStreams {
	t.Helper()
	st := IndexedStreams{}
	for q, s := range streams {
		if len(s) == 0 {
			continue
		}
		blobs := idblock.EncodePacked(s, blockSize, 1<<10)
		sets := make([]*idblock.Set, 0, len(blobs))
		for _, b := range blobs {
			set, err := idblock.Parse(b)
			if err != nil {
				t.Fatalf("Parse round trip: %v", err)
			}
			sets = append(sets, set)
		}
		merged, ok := idblock.Merge(sets)
		if !ok {
			t.Fatal("Merge rejected non-overlapping encoder output")
		}
		st[q] = merged
	}
	return st
}

// toIndexedDecoded wraps each stream as a pre-decoded single-block set, the
// shape cached postings take when the store held headerless streams.
func toIndexedDecoded(streams Streams) IndexedStreams {
	st := IndexedStreams{}
	for q, s := range streams {
		if set := idblock.FromIDs(s); set != nil {
			st[q] = set
		}
	}
	return st
}

func TestMatchIndexedSimpleTwig(t *testing.T) {
	d := doc(t, `<a><b><c/></b><d/></a>`)
	cases := []struct {
		q    string
		want bool
	}{
		{`//a[/b[/c], /d]`, true},
		{`//a[//c, /d]`, true},
		{`//a[/c]`, false},
		{`//b[/c]`, true},
		{`//a[/b[/d]]`, false},
		{`//d[/c]`, false},
		{`//a[/b, /d, /e]`, false},
		{`/a[//c]`, true},
		{`/b[/c]`, false},
	}
	for _, c := range cases {
		tr := tree(t, c.q)
		streams := StreamsFromDocument(tr, d)
		for _, st := range []IndexedStreams{
			toIndexed(t, streams, 2),
			toIndexedDecoded(streams),
		} {
			got, err := MatchIndexed(tr, st, nil)
			if err != nil {
				t.Fatalf("MatchIndexed(%s): %v", c.q, err)
			}
			if got != c.want {
				t.Errorf("MatchIndexed(%s) = %v, want %v", c.q, got, c.want)
			}
		}
	}
}

func TestMatchIndexedEmptyAndMissing(t *testing.T) {
	q := tree(t, `//a[/b]`)
	if got, err := MatchIndexed(q, IndexedStreams{}, nil); err != nil || got {
		t.Errorf("MatchIndexed(empty) = %v, %v", got, err)
	}
	if got, err := MatchIndexed(nil, IndexedStreams{}, nil); err != nil || got {
		t.Errorf("MatchIndexed(nil tree) = %v, %v", got, err)
	}
	if got, err := CandidatesIndexed(nil, IndexedStreams{}, nil); err != nil || got != nil {
		t.Errorf("CandidatesIndexed(nil tree) = %v, %v", got, err)
	}
}

// Differential property: on generated corpus documents, the block-skipping
// kernels agree elementwise with the full-decode kernels — for blocked sets
// of several block sizes and for pre-decoded single-block sets.
func TestIndexedAgreesWithDecoded(t *testing.T) {
	queries := []string{
		`//item[/name, /payment]`,
		`//item[//name]`,
		`//person[/profile[/education], /name]`,
		`//open_auction[/bidder[/increase], /type]`,
		`//site[//mail[/text]]`,
		`//closed_auction[/price]`,
		`//item[/mailbox[/mail[/text]], /location]`,
		`/site[//incategory]`,
		`//listitem[/text]`,
		`//annotation[/description[/text], /author]`,
	}
	cfg := xmark.DefaultConfig(25)
	cfg.TargetDocBytes = 4 << 10
	var totals JoinStats
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range queries {
			q := tree(t, qs)
			streams := StreamsFromDocument(q, d)
			wantMatch := Match(q, streams)
			wantCands := Candidates(q, streams)
			for _, bs := range []int{1, 3, 7, 128} {
				st := toIndexed(t, streams, bs)
				var js JoinStats
				gotMatch, err := MatchIndexed(q, st, &js)
				if err != nil {
					t.Fatal(err)
				}
				if gotMatch != wantMatch {
					t.Errorf("doc %d query %s bs %d: MatchIndexed=%v, Match=%v",
						i, qs, bs, gotMatch, wantMatch)
				}
				gotCands, err := CandidatesIndexed(q, st, &js)
				if err != nil {
					t.Fatal(err)
				}
				if !streamsEqual(gotCands, wantCands) {
					t.Errorf("doc %d query %s bs %d: CandidatesIndexed=%v, Candidates=%v",
						i, qs, bs, gotCands, wantCands)
				}
				totals.Add(js)
			}
			st := toIndexedDecoded(streams)
			if gotMatch, err := MatchIndexed(q, st, nil); err != nil || gotMatch != wantMatch {
				t.Errorf("doc %d query %s decoded: MatchIndexed=%v,%v, Match=%v",
					i, qs, gotMatch, err, wantMatch)
			}
		}
	}
	// The small block sizes must have produced actual skips, or the test is
	// not exercising the header paths at all.
	if totals.BlocksSkipped == 0 || totals.BlocksRead == 0 {
		t.Errorf("join stats = %+v, want both counters nonzero", totals)
	}
}

func TestSemijoinIndexedAgreesWithSemijoin(t *testing.T) {
	pairs := []struct{ anc, desc string }{
		{"item", "name"},
		{"person", "education"},
		{"site", "text"},
		{"name", "item"}, // inverted: usually empty output
		{"mail", "text"},
	}
	cfg := xmark.DefaultConfig(10)
	cfg.TargetDocBytes = 4 << 10
	for i := 0; i < cfg.Docs; i++ {
		gd := xmark.GenerateDoc(cfg, i)
		d, err := xmltree.Parse(gd.URI, gd.Data)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range pairs {
			var as, ds Stream
			for _, n := range d.NodesByLabel(pr.anc) {
				as = append(as, n.ID)
			}
			for _, n := range d.NodesByLabel(pr.desc) {
				ds = append(ds, n.ID)
			}
			aset, dset := idblock.FromIDs(as), idblock.FromIDs(ds)
			if len(as) >= 4 {
				aset = encodeSet(t, as, 4)
			}
			if len(ds) >= 4 {
				dset = encodeSet(t, ds, 4)
			}
			for _, axis := range []pattern.Axis{pattern.Descendant, pattern.Child} {
				want := Semijoin(as, ds, axis)
				got, err := SemijoinIndexed(aset, dset, axis, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !streamsEqual(got, want) {
					t.Errorf("doc %d %s/%s axis %v: SemijoinIndexed=%v, Semijoin=%v",
						i, pr.anc, pr.desc, axis, got, want)
				}
			}
		}
	}
}

func encodeSet(t *testing.T, ids Stream, blockSize int) *idblock.Set {
	t.Helper()
	blobs := idblock.EncodePacked(ids, blockSize, 1<<20)
	sets := make([]*idblock.Set, 0, len(blobs))
	for _, b := range blobs {
		s, err := idblock.Parse(b)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s)
	}
	s, ok := idblock.Merge(sets)
	if !ok {
		t.Fatal("Merge rejected encoder output")
	}
	return s
}

func streamsEqual(a, b Stream) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
