package index

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
	"repro/internal/pattern"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// Differential tests of concurrent look-ups: a look-up runs on its caller's
// goroutine, and many requests look up at once against one store, each in a
// pooled scratch that earlier requests on other goroutines used. Whatever
// runs beside it, a look-up must return the URI lists and — without a cache
// — the billed statistics it returns alone.

var parallelQueries = []string{
	`//item[//name~"Obsidian", /location{val}]`,
	`//item[/location="Zanzibar", /payment~"Creditcard"]`,
	`//item[/name, /payment]`,
	`//person[/profile[/education~"Graduate"], /name{val}]`,
	`//open_auction[/type="Featured", /annotation[/description]]`,
	`//person[/@id="person3"]`,
	`//site[//mail[/text~"Zanzibar"]]`,
}

// TestParallelLookupMatchesSequential runs every query under every strategy
// one at a time, then on four goroutines at once, twice over, each goroutine
// starting at a different look-up, without a cache and with one cache they
// share. Uncached, each look-up must return the URIs and statistics it did
// alone. Cached, it must return the same URIs, and every key it did not
// bill must be a cache hit, since which look-up fills the cache first is up
// to the scheduler.
func TestParallelLookupMatchesSequential(t *testing.T) {
	const goroutines = 4
	for _, seed := range []int64{42, 7, 1234} {
		cfg := xmark.DefaultConfig(90)
		cfg.Seed = seed
		cfg.TargetDocBytes = 3 << 10
		c := buildCorpus(t, dynamodb.New(meter.NewLedger()), xmark.Generate(cfg))

		type lookup struct {
			s     Strategy
			src   string
			q     *pattern.Tree
			uris  []string
			stats LookupStats
		}
		var lookups []lookup
		for _, s := range All() {
			for _, src := range parallelQueries {
				q := pattern.MustParse(src).Patterns[0]
				uris, stats, err := LookupPattern(c.store, s, q)
				if err != nil {
					t.Fatalf("seed %d %s %q alone: %v", seed, s.Name(), src, err)
				}
				lookups = append(lookups, lookup{s, src, q, uris, stats})
			}
		}
		for _, cache := range []*PostingCache{nil, NewPostingCache(32 << 20)} {
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 2*len(lookups); i++ {
						l := lookups[(i+g*len(lookups)/goroutines)%len(lookups)]
						uris, stats, err := LookupPattern(c.store, l.s, l.q, LookupOptions{Cache: cache})
						switch {
						case err != nil:
						case !reflect.DeepEqual(uris, l.uris):
							err = fmt.Errorf("URIs %v, alone %v", uris, l.uris)
						case cache == nil && stats != l.stats:
							err = fmt.Errorf("stats %+v, alone %+v", stats, l.stats)
						case cache != nil && (stats.GetOps+stats.CacheHits != l.stats.GetOps ||
							stats.CacheMisses != stats.GetOps || stats.TwigCandidates != l.stats.TwigCandidates):
							err = fmt.Errorf("cached stats %+v, alone %+v", stats, l.stats)
						}
						if err != nil {
							errs <- fmt.Errorf("seed %d cache %t %s %q: %w", seed, cache != nil, l.s.Name(), l.src, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		}
	}
}

// TestCachedLookupCoherence interleaves loads, cached look-ups and deletes,
// checking after every mutation that a cached look-up matches an uncached
// one.
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
				cached, _, err := LookupPattern(store, s, q, LookupOptions{Cache: cache})
				if err != nil {
					t.Fatalf("%s %s %q cached: %v", stage, s.Name(), qs, err)
				}
				if !reflect.DeepEqual(cached, fresh) {
					t.Errorf("%s %s %q cached: URIs %v != uncached %v", stage, s.Name(), qs, cached, fresh)
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
	var evictions int64
	for i := 0; i < 512; i++ {
		l := listOf(t, []kv.Item{{HashKey: "k", RangeKey: "r", Attrs: []kv.Attr{
			{Name: fmt.Sprintf("doc-%03d.xml", i), Values: []kv.Value{[]byte("/ea/eb/ec")}},
		}}}, PathPosting, false)
		evicted, err := cache.put(cacheKey{table: "t", key: fmt.Sprintf("k%03d", i), kind: PathPosting}, l)
		if err != nil {
			t.Fatal(err)
		}
		evictions += evicted
	}
	var resident int64
	for i := range cache.shards {
		resident += cache.shards[i].bytes
	}
	if budget := int64(16 << 10); resident > budget {
		t.Errorf("cache holds %d bytes, budget %d", resident, budget)
	}
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
					cache.put(k, uriList([]string{"d.xml"}, nil))
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
