package kv_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/meter"
)

// The tests of the read contract: a get returns read-only views of the
// store's memory, which stay as they were whatever happens to the store, do
// not reach each other, and are noticed when written through; and of what
// the layout is for: a handful of allocations per get and of heap objects
// per hash key, whatever the number of items.

func mustPut(t testing.TB, s kv.Store, tbl string, items ...kv.Item) {
	t.Helper()
	for _, it := range items {
		if _, err := s.Put(tbl, it); err != nil {
			t.Fatal(err)
		}
	}
}

func mustGet(t testing.TB, s kv.Store, tbl, hashKey string) []kv.Item {
	t.Helper()
	items, _, err := kv.Get(context.Background(), s, tbl, hashKey)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// A view taken before an overwrite, a delete or a rewrite of its table reads
// the same afterwards, with readers and a writer running at once (the race
// detector watches the arena bytes both sides touch). Half the readers
// collect items with Get, half walk records with Read after the store's
// lock is released; every record either sees must be one whole item as the
// writer put it.
func TestViewSurvivesOverwriteDeleteAndRewrite(t *testing.T) {
	s := dynamodb.New(meter.NewLedger())
	if err := s.CreateTable("idx"); err != nil {
		t.Fatal(err)
	}
	const groups, perGroup = 8, 40
	key := func(g int) string { return fmt.Sprintf("k%d", g) }
	gen := func(g, i, version int) kv.Item {
		return item(key(g), fmt.Sprintf("r%03d", i),
			attr(fmt.Sprintf("doc-%d.xml", i%7), strings.Repeat(fmt.Sprintf("%d/%d/v%d;", g, i, version), 20)))
	}
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			mustPut(t, s, "idx", gen(g, i, 0))
		}
	}
	var before []held
	for g := 0; g < groups; g++ {
		before = append(before, hold(mustGet(t, s, "idx", key(g))))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// Re-read the old views, and take and read fresh ones.
				if err := before[(r+n)%groups].changed(); err != nil {
					t.Errorf("an early view changed under the writer: %v", err)
					return
				}
				g := (r + n) % groups
				var items []kv.Item
				var err error
				if r%2 == 0 {
					items, _, err = kv.Get(context.Background(), s, "idx", key(g))
				} else {
					_, err = s.Read(context.Background(), "idx", []string{key(g)}, func(k string, recs *kv.Records) {
						for recs.Next() {
							it := kv.Item{HashKey: k, RangeKey: recs.RangeKey()}
							for recs.NextAttr() {
								a := kv.Attr{Name: recs.Name()}
								for v, ok := recs.NextValue(); ok; v, ok = recs.NextValue() {
									a.Values = append(a.Values, v)
								}
								it.Attrs = append(it.Attrs, a)
							}
							items = append(items, it)
						}
					})
				}
				if err != nil {
					t.Error(err)
					return
				}
				for _, it := range items {
					if err := whole(g, it); err != nil {
						t.Error(err)
						return
					}
				}
				if err := hold(items).changed(); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	// The writer: overwrite everything several times (each pass makes the
	// table's dead bytes reach its live bytes), delete a third, put it back.
	for version := 1; version <= 6; version++ {
		for g := 0; g < groups; g++ {
			for i := 0; i < perGroup; i++ {
				mustPut(t, s, "idx", gen(g, i, version))
			}
			var doomed []kv.Key // 14 keys: one batch
			for i := 0; i < perGroup; i += 3 {
				doomed = append(doomed, kv.Key{HashKey: key(g), RangeKey: fmt.Sprintf("r%03d", i)})
			}
			if _, err := s.BatchDelete("idx", doomed); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if st := s.ArenaStats("idx"); st.Rewrites < 3 {
		t.Fatalf("only %d rewrites: the writer no longer forces them (%+v)", st.Rewrites, st)
	}
	for g, h := range before {
		if err := h.changed(); err != nil {
			t.Errorf("group %d: view taken before the writes changed: %v", g, err)
		}
	}
	if err := s.DeleteTable("idx"); err != nil {
		t.Fatal(err)
	}
	if err := before[0].changed(); err != nil {
		t.Errorf("view changed when its table was deleted: %v", err)
	}
}

// whole reports whether it is an item TestViewSurvivesOverwriteDeleteAndRewrite
// put under group g, of any version: range key, name and value agree.
func whole(g int, it kv.Item) error {
	var i int
	if _, err := fmt.Sscanf(it.RangeKey, "r%03d", &i); err != nil {
		return fmt.Errorf("range key %q: %v", it.RangeKey, err)
	}
	if len(it.Attrs) != 1 || it.Attrs[0].Name != fmt.Sprintf("doc-%d.xml", i%7) || len(it.Attrs[0].Values) != 1 {
		return fmt.Errorf("item %s/%s: attributes %+v", it.HashKey, it.RangeKey, it.Attrs)
	}
	v := string(it.Attrs[0].Values[0])
	unit, _, _ := strings.Cut(v, ";")
	if !strings.HasPrefix(unit, fmt.Sprintf("%d/%d/v", g, i)) || v != strings.Repeat(unit+";", 20) {
		return fmt.Errorf("item %s/%s: torn value %q", it.HashKey, it.RangeKey, v)
	}
	return nil
}

// Writing into a returned Value breaks the contract; the item's checksum
// catches it at the next DumpTable and at the next rewrite of the table.
func TestWriteThroughViewIsDetected(t *testing.T) {
	panics := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	s := newDynamo(t)
	mustPut(t, s, "idx", item("k", "u", attr("a", "orig")), item("k", "v", attr("a", strings.Repeat("x", 8<<10))))
	if msg := panics(func() { kv.AsDumper(s).DumpTable("idx") }); msg != "" {
		t.Fatalf("DumpTable of an untouched table panicked: %s", msg)
	}
	mustGet(t, s, "idx", "k")[0].Attrs[0].Values[0][0] = 'X'
	if msg := panics(func() { kv.AsDumper(s).DumpTable("idx") }); !strings.Contains(msg, "read-only view") {
		t.Errorf("DumpTable after a write through a view: panic %q, want one naming the read-only view", msg)
	}
	// Overwriting the large item kills more bytes than stay live, so the
	// table is rewritten, and the rewrite meets the damaged item.
	if msg := panics(func() { s.Put("idx", item("k", "v", attr("a", "small"))) }); !strings.Contains(msg, "read-only view") {
		t.Errorf("rewrite after a write through a view: panic %q, want one naming the read-only view", msg)
	}

	// The same, with the rewrite triggered by a batch delete of the large
	// item.
	s = newDynamo(t)
	mustPut(t, s, "idx", item("k", "u", attr("a", "orig")), item("k", "v", attr("a", strings.Repeat("x", 8<<10))))
	mustGet(t, s, "idx", "k")[0].Attrs[0].Values[0][0] = 'X'
	del := func() {
		s.BatchDelete("idx", []kv.Key{{HashKey: "k", RangeKey: "v"}, {HashKey: "gone", RangeKey: "v"}})
	}
	if msg := panics(del); !strings.Contains(msg, "read-only view") {
		t.Errorf("rewrite by a batch delete after a write through a view: panic %q, want one naming the read-only view", msg)
	}
}

// A Value has no spare capacity, so appending to it copies and cannot run
// into the record stored after it.
func TestViewAppendDoesNotReachNeighbour(t *testing.T) {
	s := newDynamo(t)
	mustPut(t, s, "idx",
		item("k", "a", attr("x", "first", "second"), attr("y", "third")),
		item("k", "b", attr("x", "fourth")))
	for _, it := range mustGet(t, s, "idx", "k") {
		for _, a := range it.Attrs {
			for _, v := range a.Values {
				if cap(v) != len(v) {
					t.Errorf("%s/%s %s: value %q has capacity %d", it.HashKey, it.RangeKey, a.Name, v, cap(v))
				}
				_ = append(v, "overrun overrun overrun overrun"...)
			}
		}
		if attrs := append(it.Attrs, kv.Attr{Name: "z"}); len(it.Attrs) > 0 && &attrs[0] == &it.Attrs[0] {
			t.Errorf("%s/%s: appending an attribute wrote into the shared slab", it.HashKey, it.RangeKey)
		}
	}
	want := []kv.Item{
		item("k", "a", attr("x", "first", "second"), attr("y", "third")),
		item("k", "b", attr("x", "fourth")),
	}
	if err := sameItems(kv.AsDumper(s).DumpTable("idx"), want); err != nil {
		t.Error(err)
	}
}

// heapAfter runs build and returns the bytes and objects it left on the
// heap, with whatever build returns still reachable.
func heapAfter(build func() any) (bytes, objects int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), int64(after.HeapObjects) - int64(before.HeapObjects)
}

// Overwriting every item of a table leaves as many dead bytes as live ones,
// and the rewrite that follows must actually give the old chunks back. A
// view pins the chunks it points into, which the first half of the test
// uses to show that the measurement would see chunks that stayed.
func TestRewriteFreesOldChunks(t *testing.T) {
	const n, valueBytes = 2000, 4 << 10 // 8 MB of values
	churn := func(keepViews bool) int64 {
		bytes, _ := heapAfter(func() any {
			s := dynamodb.New(meter.NewLedger())
			if err := s.CreateTable("idx"); err != nil {
				t.Fatal(err)
			}
			load := func(fill string) {
				for i := 0; i < n; i++ {
					mustPut(t, s, "idx", item("k", fmt.Sprintf("r%05d", i), attr("doc.xml", strings.Repeat(fill, valueBytes))))
				}
			}
			load("a")
			var views []kv.Item
			if keepViews {
				views = mustGet(t, s, "idx", "k")
			}
			load("b")
			if st := s.ArenaStats("idx"); st.Rewrites == 0 || st.DeadBytes > st.LiveBytes {
				t.Fatalf("overwriting every item did not rewrite the table: %+v", st)
			}
			return []any{s, views}
		})
		return bytes
	}
	const live = n * valueBytes
	if got := churn(true); got < 2*live*9/10 {
		t.Fatalf("with views of every old item held, the store kept %d bytes for %d live: the measurement no longer sees old chunks", got, live)
	}
	if got := churn(false); got > live*13/10 {
		t.Fatalf("after a rewrite the store kept %d bytes for %d live: the old chunks were not freed", got, live)
	}
}

// groupsOf puts hash keys "group1", "group40" and "group400" of that many
// items each into the table "idx".
func groupsOf(t *testing.T, s kv.Store) {
	t.Helper()
	for _, n := range []int{1, 40, 400} {
		for i := 0; i < n; i++ {
			mustPut(t, s, "idx", item(fmt.Sprintf("group%d", n), fmt.Sprintf("r%04d", i), attr("doc.xml", "/a/b/c")))
		}
	}
}

// A Get costs the read's two (cursors and reference copy), the three slabs
// the items are cut from, the one-key request and the visitor that
// collects it, however many items the hash key has.
func TestGetAllocationsDoNotGrowWithItems(t *testing.T) {
	s := newDynamo(t)
	groupsOf(t, s)
	var allocs []float64
	for _, n := range []int{1, 40, 400} {
		key := fmt.Sprintf("group%d", n)
		allocs = append(allocs, testing.AllocsPerRun(50, func() {
			if items, _, err := kv.Get(context.Background(), s, "idx", key); err != nil || len(items) != n {
				t.Fatal(len(items), err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[1] != allocs[2] || allocs[0] > 8 {
		t.Errorf("allocations per Get of 1, 40 and 400 items = %v, want one small constant", allocs)
	}
}

// A Read allocates its cursors and its copy of the references, whatever
// the number of records: nothing per record.
func TestReadAllocationsDoNotGrowWithItems(t *testing.T) {
	s := newDynamo(t)
	groupsOf(t, s)
	var allocs []float64
	for _, n := range []int{1, 40, 400} {
		keys := []string{fmt.Sprintf("group%d", n)}
		allocs = append(allocs, testing.AllocsPerRun(50, func() {
			if _, err := s.Read(context.Background(), "idx", keys, func(string, *kv.Records) {}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[1] != allocs[2] || allocs[0] > 2 {
		t.Errorf("allocations per Read of 1, 40 and 400 items = %v, want the same two", allocs)
	}
}

// What the collector has to walk grows with hash keys and chunks, not with
// items: ten times the items under the same keys cost a few more chunks.
func TestHeapObjectsDoNotGrowWithItems(t *testing.T) {
	const hashKeys = 500
	load := func(items int) (objects int64) {
		_, objects = heapAfter(func() any {
			s := dynamodb.New(meter.NewLedger())
			if err := s.CreateTable("idx"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < items; i++ {
				mustPut(t, s, "idx", item(fmt.Sprintf("key-%03d", i%hashKeys), fmt.Sprintf("r%06d", i),
					attr(fmt.Sprintf("doc-%02d.xml", i%20), "/site/regions/africa/item/name")))
			}
			return s
		})
		return objects
	}
	small, large := load(5_000), load(50_000)
	t.Logf("heap objects: %d for 5,000 items, %d for 50,000, both under %d hash keys", small, large, hashKeys)
	if small < hashKeys {
		t.Fatalf("%d heap objects for %d hash keys: the measurement is broken", small, hashKeys)
	}
	if large > 8*hashKeys || large-small > 1000 {
		t.Errorf("heap objects grew from %d to %d with ten times the items", small, large)
	}
}
