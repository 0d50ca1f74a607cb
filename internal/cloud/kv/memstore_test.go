package kv_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/cloud/simpledb"
	"repro/internal/meter"
)

func newDynamo(t *testing.T) kv.Store {
	t.Helper()
	s := dynamodb.New(meter.NewLedger())
	if err := s.CreateTable("idx"); err != nil {
		t.Fatal(err)
	}
	return s
}

func item(hash, rng string, attrs ...kv.Attr) kv.Item {
	return kv.Item{HashKey: hash, RangeKey: rng, Attrs: attrs}
}

func attr(name string, values ...string) kv.Attr {
	a := kv.Attr{Name: name}
	for _, v := range values {
		a.Values = append(a.Values, kv.Value(v))
	}
	return a
}

func TestCreateDeleteTable(t *testing.T) {
	s := dynamodb.New(meter.NewLedger())
	if err := s.CreateTable("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("a"); !errors.Is(err, kv.ErrTableExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if err := s.CreateTable("b"); err != nil {
		t.Fatal(err)
	}
	got := s.Tables()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Tables() = %v", got)
	}
	if err := s.DeleteTable("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteTable("a"); !errors.Is(err, kv.ErrNoSuchTable) {
		t.Errorf("double delete: %v", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newDynamo(t)
	if _, err := s.Put("idx", item("ename", "u1", attr("doc1.xml", "/a/b"))); err != nil {
		t.Fatal(err)
	}
	items, _, err := s.Get(context.Background(), "idx", "ename")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 {
		t.Fatalf("got %d items", len(items))
	}
	vs := items[0].Attr("doc1.xml")
	if len(vs) != 1 || string(vs[0]) != "/a/b" {
		t.Errorf("attr values = %v", vs)
	}
	if items[0].Attr("missing") != nil {
		t.Error("missing attribute must return nil")
	}
}

func TestGetReturnsAllRangeKeysSorted(t *testing.T) {
	s := newDynamo(t)
	for _, r := range []string{"u3", "u1", "u2"} {
		if _, err := s.Put("idx", item("k", r, attr("a", r))); err != nil {
			t.Fatal(err)
		}
	}
	items, _, err := s.Get(context.Background(), "idx", "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3", len(items))
	}
	for i, want := range []string{"u1", "u2", "u3"} {
		if items[i].RangeKey != want {
			t.Errorf("items[%d].RangeKey = %q, want %q", i, items[i].RangeKey, want)
		}
	}
}

func TestPutReplacesSamePrimaryKey(t *testing.T) {
	s := newDynamo(t)
	s.Put("idx", item("k", "u1", attr("a", "old"), attr("b", "x")))
	s.Put("idx", item("k", "u1", attr("a", "new")))
	items, _, _ := s.Get(context.Background(), "idx", "k")
	if len(items) != 1 {
		t.Fatalf("got %d items, want 1", len(items))
	}
	if items[0].Attr("b") != nil {
		t.Error("replacement must drop attributes absent from the new item")
	}
	if string(items[0].Attr("a")[0]) != "new" {
		t.Error("replacement did not overwrite attribute")
	}
	if got := s.ItemCount("idx"); got != 1 {
		t.Errorf("ItemCount = %d, want 1", got)
	}
}

func TestGetMissingKeyAndTable(t *testing.T) {
	s := newDynamo(t)
	items, _, err := s.Get(context.Background(), "idx", "nothing")
	if err != nil || len(items) != 0 {
		t.Errorf("missing key: items=%v err=%v", items, err)
	}
	if _, _, err := s.Get(context.Background(), "other", "k"); !errors.Is(err, kv.ErrNoSuchTable) {
		t.Errorf("missing table: %v", err)
	}
	if _, _, err := s.Get(context.Background(), "idx", ""); !errors.Is(err, kv.ErrEmptyKey) {
		t.Errorf("empty key: %v", err)
	}
	if _, err := s.Put("idx", item("", "u")); !errors.Is(err, kv.ErrEmptyKey) {
		t.Errorf("empty put key: %v", err)
	}
}

func TestBatchPutAndLimit(t *testing.T) {
	s := newDynamo(t)
	var items []kv.Item
	for i := 0; i < 25; i++ {
		items = append(items, item("k", fmt.Sprintf("u%02d", i), attr("a", "v")))
	}
	if _, err := s.BatchPut("idx", items); err != nil {
		t.Fatal(err)
	}
	if got := s.ItemCount("idx"); got != 25 {
		t.Errorf("ItemCount = %d, want 25", got)
	}
	items = append(items, item("k", "u25", attr("a", "v")))
	if _, err := s.BatchPut("idx", items); !errors.Is(err, kv.ErrBatchTooLarge) {
		t.Errorf("oversized batch: %v", err)
	}
}

func TestBatchGetAndLimit(t *testing.T) {
	s := newDynamo(t)
	s.Put("idx", item("k1", "u", attr("a", "1")))
	s.Put("idx", item("k2", "u", attr("a", "2")))
	out, _, err := s.BatchGet(context.Background(), "idx", []string{"k1", "k2", "k3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["k1"]) != 1 || len(out["k2"]) != 1 || len(out["k3"]) != 0 {
		t.Errorf("BatchGet = %v", out)
	}
	keys := make([]string, 101)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	if _, _, err := s.BatchGet(context.Background(), "idx", keys); !errors.Is(err, kv.ErrBatchTooLarge) {
		t.Errorf("oversized batch get: %v", err)
	}
}

func TestDynamoItemSizeLimit(t *testing.T) {
	s := newDynamo(t)
	big := make([]byte, dynamodb.MaxItemBytes+1)
	_, err := s.Put("idx", kv.Item{HashKey: "k", RangeKey: "u",
		Attrs: []kv.Attr{{Name: "a", Values: []kv.Value{big}}}})
	if !errors.Is(err, kv.ErrItemTooLarge) {
		t.Errorf("oversized item: %v", err)
	}
}

func TestDynamoAcceptsBinaryValues(t *testing.T) {
	s := newDynamo(t)
	bin := kv.Value{0xff, 0x00, 0x80, 0x01}
	if _, err := s.Put("idx", kv.Item{HashKey: "k", RangeKey: "u",
		Attrs: []kv.Attr{{Name: "a", Values: []kv.Value{bin}}}}); err != nil {
		t.Fatalf("binary value rejected: %v", err)
	}
	items, _, _ := s.Get(context.Background(), "idx", "k")
	if string(items[0].Attr("a")[0]) != string(bin) {
		t.Error("binary value corrupted")
	}
}

func TestSimpleDBRejectsBinaryAndLargeValues(t *testing.T) {
	s := simpledb.New(meter.NewLedger())
	s.CreateTable("idx")
	bin := kv.Value{0xff, 0xfe}
	_, err := s.Put("idx", kv.Item{HashKey: "k", RangeKey: "u",
		Attrs: []kv.Attr{{Name: "a", Values: []kv.Value{bin}}}})
	if !errors.Is(err, kv.ErrNotText) {
		t.Errorf("binary value: %v", err)
	}
	big := kv.Value(make([]byte, simpledb.MaxValueBytes+1))
	for i := range big {
		big[i] = 'a'
	}
	_, err = s.Put("idx", kv.Item{HashKey: "k", RangeKey: "u",
		Attrs: []kv.Attr{{Name: "a", Values: []kv.Value{big}}}})
	if !errors.Is(err, kv.ErrValueTooLarge) {
		t.Errorf("oversized value: %v", err)
	}
}

func TestSizeAccounting(t *testing.T) {
	s := newDynamo(t)
	it := item("key1", "uuid-1", attr("doc.xml", "/a/b", "/a/c"))
	s.Put("idx", it)
	want := it.Size()
	if got := s.TableBytes("idx"); got != want {
		t.Errorf("TableBytes = %d, want %d", got, want)
	}
	if got := s.OverheadBytes("idx"); got != 100 {
		t.Errorf("OverheadBytes = %d, want 100", got)
	}
	if got := s.TotalBytes(); got != want+100 {
		t.Errorf("TotalBytes = %d, want %d", got, want+100)
	}
	// Replacement must not leak accounted bytes.
	s.Put("idx", item("key1", "uuid-1", attr("doc.xml", "/a")))
	if got := s.TableBytes("idx"); got >= want {
		t.Errorf("TableBytes after shrink = %d, want < %d", got, want)
	}
}

func TestSimpleDBOverheadCountsAttrPairs(t *testing.T) {
	s := simpledb.New(meter.NewLedger())
	s.CreateTable("idx")
	s.Put("idx", item("k", "u", attr("a", "1", "2"), attr("b", "3")))
	// 45 per item + 45 per attribute-value pair (3 pairs).
	if got := s.OverheadBytes("idx"); got != 45+3*45 {
		t.Errorf("OverheadBytes = %d, want %d", got, 45+3*45)
	}
}

func TestMetering(t *testing.T) {
	led := meter.NewLedger()
	s := dynamodb.New(led)
	s.CreateTable("idx")
	var items []kv.Item
	for i := 0; i < 10; i++ {
		items = append(items, item("k", fmt.Sprintf("u%d", i), attr("a", "v")))
	}
	s.BatchPut("idx", items)
	s.Get(context.Background(), "idx", "k")
	s.BatchGet(context.Background(), "idx", []string{"k", "k2"})
	u := led.Snapshot()
	if got := u.Get("dynamodb", "put"); got.Calls != 1 || got.Units != 10 {
		t.Errorf("put counts = %+v", got)
	}
	if got := u.Get("dynamodb", "get"); got.Calls != 2 || got.Units != 3 {
		t.Errorf("get counts = %+v", got)
	}
}

func TestLatencySaturation(t *testing.T) {
	led := meter.NewLedger()
	s := dynamodb.New(led)
	s.CreateTable("idx")
	payload := item("k", "u", attr("a", string(make([]byte, 10<<10))))

	d1, err := s.Put("idx", payload)
	if err != nil {
		t.Fatal(err)
	}
	// Register enough clients that the per-client capacity share drops
	// below the client's own rate: latency must increase.
	for i := 0; i < 64; i++ {
		s.RegisterClient()
	}
	d2, _ := s.Put("idx", payload)
	if d2 <= d1 {
		t.Errorf("saturated latency %v not above unsaturated %v", d2, d1)
	}
	for i := 0; i < 64; i++ {
		s.UnregisterClient()
	}
	d3, _ := s.Put("idx", payload)
	if d3 != d1 {
		t.Errorf("latency after unregister = %v, want %v", d3, d1)
	}
}

func TestLatencyMonotoneInSize(t *testing.T) {
	s := newDynamo(t)
	small, _ := s.Put("idx", item("k", "u", attr("a", "x")))
	large, _ := s.Put("idx", item("k", "u2", attr("a", string(make([]byte, 32<<10)))))
	if large <= small {
		t.Errorf("latency not monotone: small=%v large=%v", small, large)
	}
	if small < 4*time.Millisecond {
		t.Errorf("latency below RTT: %v", small)
	}
}

func TestSimpleDBSlowerThanDynamo(t *testing.T) {
	led := meter.NewLedger()
	d := dynamodb.New(led)
	sdb := simpledb.New(led)
	d.CreateTable("t")
	sdb.CreateTable("t")
	it := item("k", "u", attr("a", string(make([]byte, 900))))
	dd, _ := d.Put("t", it)
	ds, _ := sdb.Put("t", it)
	if ds <= dd {
		t.Errorf("simpledb put %v not slower than dynamodb %v", ds, dd)
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := newDynamo(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Put("idx", item("k", fmt.Sprintf("w%d-%d", w, i), attr("a", "v")))
			}
		}(w)
	}
	wg.Wait()
	if got := s.ItemCount("idx"); got != 800 {
		t.Errorf("ItemCount = %d, want 800", got)
	}
	items, _, _ := s.Get(context.Background(), "idx", "k")
	if len(items) != 800 {
		t.Errorf("Get returned %d items, want 800", len(items))
	}
}

// Property: after any sequence of puts with distinct range keys, the item
// count and byte accounting equal the sums over the puts.
func TestAccountingProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		s := newDynamo(&testing.T{})
		var wantBytes int64
		for i, sz := range sizes {
			it := item("k", fmt.Sprintf("u%04d", i), attr("a", string(make([]byte, int(sz)))))
			if _, err := s.Put("idx", it); err != nil {
				return false
			}
			wantBytes += it.Size()
		}
		return s.ItemCount("idx") == int64(len(sizes)) && s.TableBytes("idx") == wantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
