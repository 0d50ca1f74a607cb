package meter

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestRecordAndGet(t *testing.T) {
	l := NewLedger()
	l.Record("dynamodb", "put", 1, 25, 1000)
	l.Record("dynamodb", "put", 2, 50, 2000)
	l.Record("dynamodb", "get", 1, 1, 64)
	u := l.Snapshot()
	if got := u.Get("dynamodb", "put"); got != (Counts{3, 75, 3000}) {
		t.Errorf("put counts = %+v", got)
	}
	if got := u.Get("dynamodb", "get"); got != (Counts{1, 1, 64}) {
		t.Errorf("get counts = %+v", got)
	}
	if got := u.Get("dynamodb", "missing"); got != (Counts{}) {
		t.Errorf("missing op counts = %+v, want zero", got)
	}
}

func TestServiceAggregates(t *testing.T) {
	l := NewLedger()
	l.Record("s3", "put", 2, 2, 100)
	l.Record("s3", "get", 3, 3, 200)
	l.Record("sqs", "send", 5, 5, 50)
	u := l.Snapshot()
	if got := u.ServiceCalls("s3"); got != 5 {
		t.Errorf("ServiceCalls(s3) = %d, want 5", got)
	}
	if got := u.ServiceCalls("sqs"); got != 5 {
		t.Errorf("ServiceCalls(sqs) = %d, want 5", got)
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	l := NewLedger()
	l.Record("s3", "get", 1, 1, 10)
	u1 := l.Snapshot()
	l.Record("s3", "get", 1, 1, 10)
	if got := u1.Get("s3", "get").Calls; got != 1 {
		t.Errorf("snapshot mutated: calls = %d, want 1", got)
	}
}

func TestSub(t *testing.T) {
	l := NewLedger()
	l.Record("s3", "get", 1, 1, 10)
	l.AddInstanceSeconds("l", 5)
	before := l.Snapshot()
	l.Record("s3", "get", 4, 4, 40)
	l.Record("sqs", "send", 1, 1, 1)
	l.AddInstanceSeconds("l", 7)
	l.AddEgress(100)
	delta := l.Snapshot().Sub(before)
	if got := delta.Get("s3", "get"); got != (Counts{4, 4, 40}) {
		t.Errorf("delta s3.get = %+v", got)
	}
	if got := delta.Get("sqs", "send"); got != (Counts{1, 1, 1}) {
		t.Errorf("delta sqs.send = %+v", got)
	}
	if got := delta.InstanceSeconds("l"); got != 7 {
		t.Errorf("delta instance seconds = %v, want 7", got)
	}
	if got := delta.EgressBytes(); got != 100 {
		t.Errorf("delta egress = %d, want 100", got)
	}
}

func TestAdd(t *testing.T) {
	a := NewLedger()
	a.Record("s3", "get", 1, 1, 10)
	b := NewLedger()
	b.Record("s3", "get", 2, 2, 20)
	b.AddEgress(5)
	sum := a.Snapshot().Add(b.Snapshot())
	if got := sum.Get("s3", "get"); got != (Counts{3, 3, 30}) {
		t.Errorf("sum = %+v", got)
	}
	if sum.EgressBytes() != 5 {
		t.Errorf("egress = %d, want 5", sum.EgressBytes())
	}
}

func TestOpsSorted(t *testing.T) {
	l := NewLedger()
	l.Record("sqs", "send", 1, 1, 0)
	l.Record("dynamodb", "put", 1, 1, 0)
	l.Record("dynamodb", "get", 1, 1, 0)
	ops := l.Snapshot().Ops()
	want := []Op{{"dynamodb", "get"}, {"dynamodb", "put"}, {"sqs", "send"}}
	if len(ops) != len(want) {
		t.Fatalf("got %d ops, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("ops[%d] = %v, want %v", i, ops[i], want[i])
		}
	}
}

func TestReset(t *testing.T) {
	l := NewLedger()
	l.Record("s3", "get", 1, 1, 10)
	l.AddEgress(3)
	l.Reset()
	u := l.Snapshot()
	if len(u.Ops()) != 0 || u.EgressBytes() != 0 {
		t.Error("Reset did not clear the ledger")
	}
}

func TestStringIncludesEverything(t *testing.T) {
	l := NewLedger()
	l.Record("s3", "get", 1, 1, 10)
	l.AddInstanceSeconds("xl", 3)
	l.AddEgress(7)
	s := l.Snapshot().String()
	for _, want := range []string{"s3.get", "ec2.xl", "net.egress"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in %q", want, s)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.Record("dynamodb", "get", 1, 1, 2)
			}
		}()
	}
	wg.Wait()
	if got := l.Snapshot().Get("dynamodb", "get"); got != (Counts{4000, 4000, 8000}) {
		t.Errorf("counts = %+v", got)
	}
}

func TestCompactSub(t *testing.T) {
	l := NewLedger()
	l.Record("s3", "get", 1, 1, 10)
	l.AddInstanceSeconds("l", 5)
	before := l.CompactInto(Compact{})
	l.Record("s3", "get", 4, 4, 40)
	l.Record("sqs", "send", 1, 1, 1)
	l.AddInstanceSeconds("l", 7)
	l.AddInstanceSeconds("xl", 2)
	l.AddEgress(100)

	ops, inst, egress := l.SubSince(before)
	want := []OpDelta{
		{Op{"s3", "get"}, Counts{4, 4, 40}},
		{Op{"sqs", "send"}, Counts{1, 1, 1}},
	}
	if len(ops) != len(want) {
		t.Fatalf("ops = %+v, want %+v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("ops[%d] = %+v, want %+v", i, ops[i], want[i])
		}
	}
	wantInst := []TypeSeconds{{"l", 7}, {"xl", 2}}
	if len(inst) != len(wantInst) {
		t.Fatalf("inst = %+v, want %+v", inst, wantInst)
	}
	for i := range wantInst {
		if inst[i] != wantInst[i] {
			t.Errorf("inst[%d] = %+v, want %+v", i, inst[i], wantInst[i])
		}
	}
	if egress != 100 {
		t.Errorf("egress = %d, want 100", egress)
	}
}

func TestCompactIntoReuses(t *testing.T) {
	l := NewLedger()
	l.Record("s3", "get", 1, 1, 10)
	l.AddInstanceSeconds("l", 1)
	scratch := l.CompactInto(Compact{})
	l.Record("s3", "put", 2, 2, 20)
	c := l.CompactInto(scratch)
	// A complete reading: nothing happened since it was taken.
	if ops, inst, egress := l.SubSince(c); ops != nil || inst != nil || egress != 0 {
		t.Fatalf("activity since the CompactInto reading = (%+v, %+v, %d), want none", ops, inst, egress)
	}
	if ops, _, _ := l.SubSince(Compact{}); len(ops) != 2 {
		t.Fatalf("activity since the start = %+v, want the get and the put", ops)
	}
}

// Readers (Snapshot, Compact, SubSince) racing writers must neither trip
// the race detector nor observe torn counts: every reading of dynamodb.get
// keeps Calls == Units and Bytes == 2*Calls.
func TestConcurrentReadersAndWriters(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 400; j++ {
				l.Record("dynamodb", "get", 1, 1, 2)
				l.Record("s3", "put", 1, 1, 1)
				l.AddInstanceSeconds("l", 0.001)
				l.AddEgress(1)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := l.CompactInto(Compact{})
			for j := 0; j < 200; j++ {
				if c := l.Snapshot().Get("dynamodb", "get"); c.Calls != c.Units || c.Bytes != 2*c.Calls {
					t.Errorf("torn snapshot: %+v", c)
					return
				}
				ops, _, _ := l.SubSince(base)
				for _, d := range ops {
					if d.Op == (Op{"dynamodb", "get"}) && (d.Counts.Calls != d.Counts.Units || d.Counts.Bytes != 2*d.Counts.Calls) {
						t.Errorf("torn delta: %+v", d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := l.Snapshot().Get("dynamodb", "get"); got != (Counts{1600, 1600, 3200}) {
		t.Errorf("final counts = %+v", got)
	}
}

// String renders ops sorted by service then name, independent of the order
// they were recorded in — two ledgers with the same totals must print
// byte-identical reports.
func TestStringStableOrder(t *testing.T) {
	a, b := NewLedger(), NewLedger()
	recs := [][3]string{{"sqs", "send"}, {"dynamodb", "put"}, {"s3", "get"}, {"dynamodb", "get"}}
	for _, r := range recs {
		a.Record(r[0], r[1], 1, 1, 1)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		b.Record(recs[i][0], recs[i][1], 1, 1, 1)
	}
	a.AddInstanceSeconds("xl", 1)
	a.AddInstanceSeconds("l", 2)
	b.AddInstanceSeconds("l", 2)
	b.AddInstanceSeconds("xl", 1)
	sa, sb := a.Snapshot().String(), b.Snapshot().String()
	if sa != sb {
		t.Errorf("String depends on recording order:\n%s\nvs\n%s", sa, sb)
	}
	idx := strings.Index
	if !(idx(sa, "dynamodb.get") < idx(sa, "dynamodb.put") && idx(sa, "dynamodb.put") < idx(sa, "s3.get") && idx(sa, "s3.get") < idx(sa, "sqs.send")) {
		t.Errorf("ops not sorted by service then name:\n%s", sa)
	}
}

// Property: Sub is the inverse of Add on op counts.
func TestAddSubRoundTrip(t *testing.T) {
	f := func(calls1, calls2 uint16, bytes1, bytes2 uint32) bool {
		a := NewLedger()
		a.Record("x", "op", int64(calls1), int64(calls1), int64(bytes1))
		b := NewLedger()
		b.Record("x", "op", int64(calls2), int64(calls2), int64(bytes2))
		ua, ub := a.Snapshot(), b.Snapshot()
		back := ua.Add(ub).Sub(ub)
		return back.Get("x", "op") == ua.Get("x", "op")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
