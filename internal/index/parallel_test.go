package index

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/meter"
	"repro/internal/pattern"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// Differential tests of the concurrent query pipeline: at every concurrency
// level, and with or without the posting cache, a look-up must return the
// same URI lists and — without a cache — the same billed statistics as the
// sequential baseline.

var parallelQueries = []string{
	`//item[//name~"Obsidian", /location{val}]`,
	`//item[/location="Zanzibar", /payment~"Creditcard"]`,
	`//item[/name, /payment]`,
	`//person[/profile[/education~"Graduate"], /name{val}]`,
	`//open_auction[/type="Featured", /annotation[/description]]`,
	`//person[/@id="person3"]`,
	`//site[//mail[/text~"Zanzibar"]]`,
}

func TestParallelLookupMatchesSequential(t *testing.T) {
	// Randomized corpora: several seeds and sizes, so batch-get chunking
	// and twig-join fan-out see different shapes.
	for _, seed := range []int64{42, 7, 1234} {
		cfg := xmark.DefaultConfig(90)
		cfg.Seed = seed
		cfg.TargetDocBytes = 3 << 10
		c := buildCorpus(t, dynamodb.New(meter.NewLedger()), xmark.Generate(cfg))

		for _, s := range All() {
			for _, qs := range parallelQueries {
				q := pattern.MustParse(qs).Patterns[0]
				base, baseStats, err := LookupPattern(c.store, s, q, LookupOptions{Concurrency: 1})
				if err != nil {
					t.Fatalf("seed %d %s %q sequential: %v", seed, s.Name(), qs, err)
				}
				for _, conc := range []int{2, 8} {
					got, stats, err := LookupPattern(c.store, s, q, LookupOptions{Concurrency: conc})
					if err != nil {
						t.Fatalf("seed %d %s %q conc=%d: %v", seed, s.Name(), qs, conc, err)
					}
					if !reflect.DeepEqual(got, base) {
						t.Errorf("seed %d %s %q conc=%d: URIs %v != sequential %v",
							seed, s.Name(), qs, conc, got, base)
					}
					if stats.GetOps != baseStats.GetOps || stats.BytesFetched != baseStats.BytesFetched {
						t.Errorf("seed %d %s %q conc=%d: stats (GetOps %d, bytes %d) != sequential (GetOps %d, bytes %d)",
							seed, s.Name(), qs, conc,
							stats.GetOps, stats.BytesFetched, baseStats.GetOps, baseStats.BytesFetched)
					}
					if stats.GetTime != baseStats.GetTime {
						t.Errorf("seed %d %s %q conc=%d: modeled GetTime %v != sequential %v",
							seed, s.Name(), qs, conc, stats.GetTime, baseStats.GetTime)
					}
				}
			}
		}
	}
}

// TestCachedLookupCoherence interleaves loads, cached look-ups and deletes,
// checking after every mutation that a cached look-up matches an uncached
// one at every concurrency level.
func TestCachedLookupCoherence(t *testing.T) {
	cfg := xmark.DefaultConfig(40)
	cfg.TargetDocBytes = 3 << 10
	gen := xmark.Generate(cfg)

	store := dynamodb.New(meter.NewLedger())
	for _, s := range All() {
		if err := CreateTables(store, s); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewPostingCache(32 << 20)
	opts := OptionsFor(store)

	var docs []*xmltree.Document
	load := func(from, to int) {
		for _, gd := range gen[from:to] {
			d, err := xmltree.Parse(gd.URI, gd.Data)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, d)
			for _, s := range All() {
				if _, _, err := LoadDocument(store, s, d, opts, cache); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	remove := func(n int) {
		for i := 0; i < n && len(docs) > 0; i++ {
			d := docs[0]
			docs = docs[1:]
			for _, s := range All() {
				if _, _, err := DeleteDocument(store, s, d, opts, cache); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	check := func(stage string) {
		for _, s := range All() {
			for _, qs := range parallelQueries {
				q := pattern.MustParse(qs).Patterns[0]
				fresh, _, err := LookupPattern(store, s, q)
				if err != nil {
					t.Fatalf("%s %s %q uncached: %v", stage, s.Name(), qs, err)
				}
				for _, conc := range []int{1, 2, 8} {
					cached, _, err := LookupPattern(store, s, q, LookupOptions{Concurrency: conc, Cache: cache})
					if err != nil {
						t.Fatalf("%s %s %q cached conc=%d: %v", stage, s.Name(), qs, conc, err)
					}
					if !reflect.DeepEqual(cached, fresh) {
						t.Errorf("%s %s %q cached conc=%d: URIs %v != uncached %v",
							stage, s.Name(), qs, conc, cached, fresh)
					}
				}
			}
		}
	}

	load(0, 25)
	check("after initial load")
	remove(8)
	check("after deletes")
	load(25, len(gen))
	check("after reload")
	remove(5)
	check("after final deletes")
}

// TestCacheHitsNotBilled checks the cost-model contract: a fully cached
// repeat of a look-up issues no billed index request at all.
func TestCacheHitsNotBilled(t *testing.T) {
	cfg := xmark.DefaultConfig(30)
	cfg.TargetDocBytes = 2 << 10
	c := buildCorpus(t, dynamodb.New(meter.NewLedger()), xmark.Generate(cfg))
	cache := NewPostingCache(32 << 20)

	q := pattern.MustParse(`//item[/name, /payment]`).Patterns[0]
	for _, s := range All() {
		cold, coldStats, err := LookupPattern(c.store, s, q, LookupOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if coldStats.CacheHits != 0 || coldStats.CacheMisses == 0 {
			t.Errorf("%s cold: hits %d misses %d, want 0 hits and >0 misses",
				s.Name(), coldStats.CacheHits, coldStats.CacheMisses)
		}
		warm, warmStats, err := LookupPattern(c.store, s, q, LookupOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s warm URIs %v != cold %v", s.Name(), warm, cold)
		}
		if warmStats.GetOps != 0 || warmStats.BytesFetched != 0 || warmStats.GetTime != 0 {
			t.Errorf("%s warm look-up billed GetOps=%d bytes=%d time=%v, want all zero",
				s.Name(), warmStats.GetOps, warmStats.BytesFetched, warmStats.GetTime)
		}
		if warmStats.CacheMisses != 0 || warmStats.CacheHits == 0 {
			t.Errorf("%s warm: hits %d misses %d, want >0 hits and 0 misses",
				s.Name(), warmStats.CacheHits, warmStats.CacheMisses)
		}
	}
}

// TestPostingCacheEviction fills a tiny cache past its budget and checks
// that it stays bounded and counts evictions.
func TestPostingCacheEviction(t *testing.T) {
	cache := NewPostingCache(16 << 10) // 1 KiB per shard
	for i := 0; i < 512; i++ {
		postings := map[string]*Posting{
			fmt.Sprintf("doc-%03d.xml", i): {URI: "u", PathVals: [][]byte{[]byte("/ea/eb/ec")}},
		}
		cache.put(cacheKey{table: "t", key: fmt.Sprintf("k%03d", i), kind: PathPosting}, postings)
	}
	if got, budget := cache.Bytes(), int64(16<<10); got > budget {
		t.Errorf("cache holds %d bytes, budget %d", got, budget)
	}
	_, _, evictions := cache.Counters()
	if evictions == 0 {
		t.Error("no evictions recorded after overfilling the cache")
	}
	if cache.Len() == 0 {
		t.Error("cache empty after inserts")
	}
}

// TestPostingCacheConcurrent hammers one cache from many goroutines mixing
// gets, puts and invalidations; the race detector does the real checking.
func TestPostingCacheConcurrent(t *testing.T) {
	cache := NewPostingCache(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := cacheKey{table: "t", key: fmt.Sprintf("k%d", (g+i)%37), kind: URIPosting}
				switch i % 3 {
				case 0:
					cache.put(k, map[string]*Posting{"d.xml": {URI: "d.xml"}})
				case 1:
					cache.get(k)
				default:
					cache.Invalidate(k.table, k.key)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAugmentEqContainsIdentical is the regression test for the merged
// Eq/Contains arms: both predicate kinds must index the constant's words
// identically.
func TestAugmentEqContainsIdentical(t *testing.T) {
	for _, constant := range []string{"Zanzibar", "Graduate degree", "one two three"} {
		eq := pattern.MustParse(fmt.Sprintf(`//item[/location=%q]`, constant)).Patterns[0]
		contains := pattern.MustParse(fmt.Sprintf(`//item[/location~%q]`, constant)).Patterns[0]
		ae, ac := augment(eq), augment(contains)
		var se, sc []string
		collect := func(a *augmented, out *[]string) {
			a.tree.Walk(func(n *pattern.Node) {
				*out = append(*out, fmt.Sprintf("%s|%v|%s", n.Label, n.Axis, a.keys[n]))
			})
		}
		collect(ae, &se)
		collect(ac, &sc)
		if !reflect.DeepEqual(se, sc) {
			t.Errorf("constant %q: augmented trees differ\neq:       %v\ncontains: %v", constant, se, sc)
		}
		if len(ae.distinctKeys()) != len(ac.distinctKeys()) ||
			!reflect.DeepEqual(ae.distinctKeys(), ac.distinctKeys()) {
			t.Errorf("constant %q: distinct keys differ: %v vs %v",
				constant, ae.distinctKeys(), ac.distinctKeys())
		}
	}
}
