package index

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cloud/kv"
	"repro/internal/pattern"
	"repro/internal/resilience"
	"repro/internal/xmark"
)

// gatedStore blocks BatchGet between entry and release, so a test can hold
// the single-flight leader in flight while followers attach.
type gatedStore struct {
	kv.Store
	entered chan struct{}
	release chan struct{}
	calls   int
}

func (g *gatedStore) BatchGet(ctx context.Context, table string, keys []string) (map[string][]kv.Item, time.Duration, error) {
	g.calls++
	g.entered <- struct{}{}
	<-g.release
	return g.Store.BatchGet(ctx, table, keys)
}

// A cache-fill stampede on one hot key coalesces to a single billed store
// read whose decoded postings — including the lazily-blocked identifier
// structure — every waiter shares by pointer; only the leader fills the
// cache.
func TestReadKeysCoalescesCacheFill(t *testing.T) {
	base := newStore(t, LUI)
	loadCorpus(t, base, LUI, xmark.Paintings()[:2])
	table := LUI.TableName(flatTable)
	keys := []string{"ename"}

	gs := &gatedStore{Store: base, entered: make(chan struct{}, 1), release: make(chan struct{})}
	flight := resilience.NewGroup()
	cache := NewPostingCache(1 << 20)
	opt := LookupOptions{Flight: flight, Cache: cache}

	type result struct {
		out map[string]map[string]*Posting
		rs  LookupStats
		err error
	}
	read := func(ch chan result) {
		out, rs, err := ReadKeys(gs, table, keys, IDPosting, true, opt)
		ch <- result{out, rs, err}
	}
	chA := make(chan result, 1)
	go read(chA)
	<-gs.entered // the leader is inside the store now

	chB := make(chan result, 1)
	go read(chB)
	// Release the leader only once the follower has attached to its flight.
	fkey := flightKey(table, IDPosting, true, keys, func(string) uint64 { return 0 })
	deadline := time.Now().Add(5 * time.Second)
	for flight.Waiting(fkey) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never attached to the in-flight read")
		}
		time.Sleep(time.Millisecond)
	}
	close(gs.release)

	a, b := <-chA, <-chB
	if a.err != nil || b.err != nil {
		t.Fatalf("errs = %v / %v", a.err, b.err)
	}
	if gs.calls != 1 {
		t.Fatalf("store saw %d batch gets, want 1 — the stampede must coalesce", gs.calls)
	}
	if a.rs.GetOps != 1 || a.rs.BytesFetched == 0 || a.rs.CoalescedKeys != 0 {
		t.Fatalf("leader stats = %+v, want 1 billed get", a.rs)
	}
	if b.rs.GetOps != 0 || b.rs.BytesFetched != 0 || b.rs.CoalescedKeys != 1 {
		t.Fatalf("follower stats = %+v, want 0 billed gets and 1 coalesced key", b.rs)
	}
	if b.rs.GetTime != a.rs.GetTime {
		t.Fatalf("follower waited %v, want the leader's %v", b.rs.GetTime, a.rs.GetTime)
	}
	pa, pb := a.out["ename"]["manet.xml"], b.out["ename"]["manet.xml"]
	if pa == nil || pa != pb {
		t.Fatalf("follower posting %p is not the leader's parsed structure %p", pb, pa)
	}
	if st := flight.Stats(); st.Hits != 1 || st.Leaders != 1 {
		t.Fatalf("flight stats = %+v, want {Hits:1 Leaders:1}", st)
	}

	// The leader filled the cache: a later read is served without the store.
	out, rs, err := ReadKeys(base, table, keys, IDPosting, true, LookupOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rs.CacheHits != 1 || rs.GetOps != 0 {
		t.Fatalf("cached read stats = %+v, want a pure cache hit", rs)
	}
	if out["ename"]["manet.xml"] != pa {
		t.Fatal("cache does not hold the leader's parsed posting")
	}
}

// Reads charge their modeled latency to the query budget, and a look-up
// whose budget is spent stops with ErrDeadline before touching the store.
func TestLookupStopsOnSpentBudget(t *testing.T) {
	store := newStore(t, LUI)
	loadCorpus(t, store, LUI, xmark.Paintings()[:2])
	table := LUI.TableName(flatTable)

	budget := resilience.NewBudget(time.Hour, -1)
	ctx := resilience.NewContext(context.Background(), budget)
	_, rs, err := ReadKeys(store, table, []string{"ename"}, IDPosting, true, LookupOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if rs.GetTime == 0 || budget.Spent() != rs.GetTime {
		t.Fatalf("budget spent = %v, want the read's %v charged", budget.Spent(), rs.GetTime)
	}

	// Exhaust the budget; the next look-up must stop immediately.
	budget.Charge(time.Hour)
	q := pattern.MustParse(`//painting[/name]`).Patterns[0]
	_, _, err = LookupPattern(store, LUI, q, LookupOptions{Ctx: ctx})
	if !errors.Is(err, resilience.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error must match context.DeadlineExceeded, got %v", err)
	}

	// A cancelled context stops the CPU-side twig join as well.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = LookupPattern(store, LUI, q, LookupOptions{Ctx: cctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
