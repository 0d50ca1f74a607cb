package s3

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/meter"
)

func newSvc(t *testing.T) *Service {
	t.Helper()
	s := New(meter.NewLedger())
	if err := s.CreateBucket("wh"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newSvc(t)
	data := []byte("<painting/>")
	if _, err := s.Put("wh", "delacroix.xml", data, map[string]string{"kind": "xml"}); err != nil {
		t.Fatal(err)
	}
	o, _, err := s.Get("wh", "delacroix.xml")
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Data) != string(data) {
		t.Errorf("data = %q", o.Data)
	}
	if o.Meta["kind"] != "xml" {
		t.Errorf("meta = %v", o.Meta)
	}
	if o.Version != 1 {
		t.Errorf("version = %d, want 1", o.Version)
	}
}

func TestVersionIncrementsOnOverwrite(t *testing.T) {
	s := newSvc(t)
	s.Put("wh", "k", []byte("v1"), nil)
	s.Put("wh", "k", []byte("v2"), nil)
	o, _, _ := s.Get("wh", "k")
	if o.Version != 2 || string(o.Data) != "v2" {
		t.Errorf("got version=%d data=%q", o.Version, o.Data)
	}
}

func TestErrors(t *testing.T) {
	s := newSvc(t)
	if err := s.CreateBucket("wh"); !errors.Is(err, ErrBucketExists) {
		t.Errorf("duplicate bucket: %v", err)
	}
	if _, err := s.Put("nope", "k", nil, nil); !errors.Is(err, ErrNoSuchBucket) {
		t.Errorf("missing bucket put: %v", err)
	}
	if _, _, err := s.Get("wh", "missing"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("missing key: %v", err)
	}
	if _, err := s.Put("wh", "", nil, nil); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("empty key: %v", err)
	}
}

func TestDeleteIsIdempotent(t *testing.T) {
	s := newSvc(t)
	s.Put("wh", "k", []byte("x"), nil)
	if _, err := s.Delete("wh", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("wh", "k"); err != nil {
		t.Errorf("second delete: %v", err)
	}
	if _, _, err := s.Get("wh", "k"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("get after delete: %v", err)
	}
	if got := s.BucketBytes("wh"); got != 0 {
		t.Errorf("BucketBytes = %d, want 0", got)
	}
}

func TestListPrefix(t *testing.T) {
	s := newSvc(t)
	for _, k := range []string{"docs/a.xml", "docs/b.xml", "results/r1"} {
		s.Put("wh", k, []byte("x"), nil)
	}
	keys, _, err := s.List("wh", "docs/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "docs/a.xml" || keys[1] != "docs/b.xml" {
		t.Errorf("List = %v", keys)
	}
	all, _, _ := s.List("wh", "")
	if len(all) != 3 {
		t.Errorf("List(all) = %v", all)
	}
}

func TestByteAccounting(t *testing.T) {
	s := newSvc(t)
	s.CreateBucket("other")
	s.Put("wh", "a", make([]byte, 100), nil)
	s.Put("wh", "b", make([]byte, 50), nil)
	s.Put("other", "c", make([]byte, 25), nil)
	s.Put("wh", "a", make([]byte, 10), nil) // overwrite shrinks
	if got := s.BucketBytes("wh"); got != 60 {
		t.Errorf("BucketBytes = %d, want 60", got)
	}
	if got := s.TotalBytes(); got != 85 {
		t.Errorf("TotalBytes = %d, want 85", got)
	}
	if keys, _, _ := s.List("wh", ""); len(keys) != 2 {
		t.Errorf("List = %v, want 2 keys", keys)
	}
	if s.BucketBytes("missing") != 0 {
		t.Error("missing bucket has bytes")
	}
}

// Get hands out the stored object, not a copy; what makes that safe is that
// Put copies what it is given and that an overwrite or delete replaces the
// stored slice and never edits it.
func TestGetReturnsStableView(t *testing.T) {
	s := newSvc(t)
	data, meta := []byte("orig"), map[string]string{"m": "1"}
	s.Put("wh", "k", data, meta)
	data[0], meta["m"] = 'X', "2" // the caller's own buffers stay the caller's
	o, _, _ := s.Get("wh", "k")
	if string(o.Data) != "orig" || o.Meta["m"] != "1" {
		t.Fatalf("Put kept the caller's buffers: %q %v", o.Data, o.Meta)
	}
	again, _, _ := s.Get("wh", "k")
	if &again.Data[0] != &o.Data[0] {
		t.Error("Get copied the object")
	}
	s.Put("wh", "k", []byte("new!"), map[string]string{"m": "3"})
	if string(o.Data) != "orig" || o.Meta["m"] != "1" || o.Version != 1 {
		t.Errorf("an overwrite reached the earlier view: %q %v v%d", o.Data, o.Meta, o.Version)
	}
	s.Delete("wh", "k")
	if string(o.Data) != "orig" {
		t.Errorf("a delete reached the earlier view: %q", o.Data)
	}
}

func TestLatencyModel(t *testing.T) {
	led := meter.NewLedger()
	s := NewWithPerf(led, Perf{RTT: 10 * time.Millisecond, Bandwidth: 1 << 20})
	s.CreateBucket("b")
	d, _ := s.Put("b", "k", make([]byte, 1<<20), nil)
	want := 10*time.Millisecond + time.Second
	if d != want {
		t.Errorf("put latency = %v, want %v", d, want)
	}
	_, d, _ = s.Get("b", "k")
	if d != want {
		t.Errorf("get latency = %v, want %v", d, want)
	}
}

func TestMetering(t *testing.T) {
	led := meter.NewLedger()
	s := New(led)
	s.CreateBucket("b")
	s.Put("b", "k", make([]byte, 10), nil)
	s.Get("b", "k")
	s.Get("b", "k")
	s.List("b", "")
	u := led.Snapshot()
	if got := u.Get("s3", "put"); got.Calls != 1 || got.Bytes != 10 {
		t.Errorf("put = %+v", got)
	}
	if got := u.Get("s3", "get"); got.Calls != 2 || got.Bytes != 20 {
		t.Errorf("get = %+v", got)
	}
	if got := u.Get("s3", "list"); got.Calls != 1 {
		t.Errorf("list = %+v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := newSvc(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []string{"a", "b", "c", "d"}[w]
			for i := 0; i < 200; i++ {
				s.Put("wh", key, []byte{byte(i)}, nil)
				s.Get("wh", key)
			}
		}(w)
	}
	wg.Wait()
	if keys, _, _ := s.List("wh", ""); len(keys) != 4 {
		t.Errorf("List = %v, want 4 keys", keys)
	}
}
