package pricing

import (
	"math"
	"strings"
	"testing"

	"repro/internal/meter"
)

func approx(a, b USD) bool { return math.Abs(float64(a-b)) < 1e-12 }

func TestSingapore2012MatchesTable3(t *testing.T) {
	p := Singapore2012()
	cases := []struct {
		name string
		got  USD
		want USD
	}{
		{"STMonthGB", p.STMonthGB, 0.125},
		{"STPut", p.STPut, 0.000011},
		{"STGet", p.STGet, 0.0000011},
		{"IDXMonthGB", p.IDXMonthGB, 1.14},
		{"IDXPut", p.IDXPut, 0.00000032},
		{"IDXGet", p.IDXGet, 0.000000032},
		{"VMHour[l]", p.VMHour["l"], 0.34},
		{"VMHour[xl]", p.VMHour["xl"], 0.68},
		{"QSRequest", p.QSRequest, 0.000001},
		{"EgressGB", p.EgressGB, 0.19},
	}
	for _, c := range cases {
		if !approx(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestBillS3(t *testing.T) {
	p := Singapore2012()
	l := meter.NewLedger()
	l.Record("s3", "put", 100, 100, 0)
	l.Record("s3", "get", 1000, 1000, 0)
	inv := p.Bill(l.Snapshot())
	want := p.STPut*100 + p.STGet*1000
	if !approx(inv.Line("s3"), want) {
		t.Errorf("s3 line = %v, want %v", inv.Line("s3"), want)
	}
}

func TestBillKVStoresPerUnit(t *testing.T) {
	p := Singapore2012()
	l := meter.NewLedger()
	// One batch call writing 25 rows must bill 25 put units.
	l.Record("dynamodb", "put", 1, 25, 0)
	l.Record("dynamodb", "get", 1, 4, 0)
	l.Record("simpledb", "put", 1, 25, 0)
	inv := p.Bill(l.Snapshot())
	if !approx(inv.Line("dynamodb"), p.IDXPut*25+p.IDXGet*4) {
		t.Errorf("dynamodb line = %v", inv.Line("dynamodb"))
	}
	if !approx(inv.Line("simpledb"), p.SDBPut*25) {
		t.Errorf("simpledb line = %v", inv.Line("simpledb"))
	}
}

func TestBillEC2FractionalHours(t *testing.T) {
	p := Singapore2012()
	l := meter.NewLedger()
	l.AddInstanceSeconds("l", 1800) // half an hour
	l.AddInstanceSeconds("xl", 3600)
	inv := p.Bill(l.Snapshot())
	want := p.VMHour["l"]*0.5 + p.VMHour["xl"]*1
	if !approx(inv.Line("ec2"), want) {
		t.Errorf("ec2 line = %v, want %v", inv.Line("ec2"), want)
	}
}

func TestBillUnknownInstanceTypeIgnored(t *testing.T) {
	p := Singapore2012()
	l := meter.NewLedger()
	l.AddInstanceSeconds("quantum", 3600)
	if got := p.Bill(l.Snapshot()).Line("ec2"); got != 0 {
		t.Errorf("unknown instance billed %v", got)
	}
}

func TestBillEgress(t *testing.T) {
	p := Singapore2012()
	l := meter.NewLedger()
	l.AddEgress(GB / 2)
	inv := p.Bill(l.Snapshot())
	if !approx(inv.Line("egress"), p.EgressGB/2) {
		t.Errorf("egress line = %v", inv.Line("egress"))
	}
}

func TestBillSQSPerCall(t *testing.T) {
	p := Singapore2012()
	l := meter.NewLedger()
	l.Record("sqs", "send", 3, 3, 100)
	l.Record("sqs", "receive", 2, 2, 100)
	l.Record("sqs", "delete", 2, 2, 0)
	inv := p.Bill(l.Snapshot())
	if !approx(inv.Line("sqs"), p.QSRequest*7) {
		t.Errorf("sqs line = %v, want %v", inv.Line("sqs"), p.QSRequest*7)
	}
}

func TestStorageMonthly(t *testing.T) {
	p := Singapore2012()
	inv := p.StorageMonthly(40*GB, 100*GB, "dynamodb")
	if !approx(inv.Line("s3"), 40*p.STMonthGB) {
		t.Errorf("s3 storage = %v", inv.Line("s3"))
	}
	if !approx(inv.Line("dynamodb"), 100*p.IDXMonthGB) {
		t.Errorf("dynamodb storage = %v", inv.Line("dynamodb"))
	}
	inv = p.StorageMonthly(0, 10*GB, "simpledb")
	if !approx(inv.Line("simpledb"), 10*p.SDBMonthGB) {
		t.Errorf("simpledb storage = %v", inv.Line("simpledb"))
	}
	if _, ok := inv.Lines["s3"]; ok {
		t.Error("zero data bytes must not produce an s3 line")
	}
}

func TestInvoiceTotalAndAdd(t *testing.T) {
	a := Invoice{Lines: map[string]USD{"s3": 1, "ec2": 2}}
	b := Invoice{Lines: map[string]USD{"ec2": 3}}
	sum := a.Add(b)
	if !approx(sum.Total(), 6) {
		t.Errorf("total = %v, want 6", sum.Total())
	}
	if !approx(a.Total(), 3) {
		t.Errorf("a mutated by Add: total = %v", a.Total())
	}
}

// A bill's total must not depend on the order a map hands out its lines.
// These lines sum to different float64s in different orders; every freshly
// built invoice must total to their sum in sorted service order, bit for bit.
func TestInvoiceTotalIsOrderFree(t *testing.T) {
	names := []string{"dynamodb", "ec2", "egress", "s3", "sdb", "sqs"} // sorted
	amounts := []USD{0.3, 0.1, 0.2, 0.7, 0.6, 1e-16}
	var sorted, reversed USD
	for i := range amounts {
		sorted += amounts[i]
		reversed += amounts[len(amounts)-1-i]
	}
	if sorted == reversed {
		t.Fatal("the lines sum alike in either order, so the test shows nothing")
	}
	want := math.Float64bits(float64(sorted))
	for n := 0; n < 200; n++ {
		inv := Invoice{Lines: make(map[string]USD, len(names))}
		for i, name := range names {
			inv.Lines[name] = amounts[i]
		}
		if got := math.Float64bits(float64(inv.Total())); got != want {
			t.Fatalf("invoice %d totals %#x, the sorted-order sum is %#x", n, got, want)
		}
	}
}

func TestInvoiceString(t *testing.T) {
	inv := Invoice{Lines: map[string]USD{"s3": 0.5, "ec2": 0.25}}
	s := inv.String()
	if !strings.Contains(s, "total") || !strings.Contains(s, "s3") {
		t.Errorf("String() = %q", s)
	}
	// Deterministic order: ec2 before s3.
	if strings.Index(s, "ec2") > strings.Index(s, "s3") {
		t.Errorf("lines not sorted: %q", s)
	}
}

func TestBillWholeWorkloadDecomposition(t *testing.T) {
	// Sanity check in the spirit of Figure 12: EC2 should dominate a
	// typical indexed query's cost when instance time is substantial.
	p := Singapore2012()
	l := meter.NewLedger()
	l.Record("dynamodb", "get", 40, 40, 1<<20)
	l.Record("s3", "get", 400, 400, 1<<30)
	l.AddInstanceSeconds("xl", 800)
	l.Record("sqs", "send", 60, 60, 1000)
	l.AddEgress(500 << 20)
	inv := p.Bill(l.Snapshot())
	if inv.Line("ec2") <= inv.Line("dynamodb") || inv.Line("ec2") <= inv.Line("s3") {
		t.Errorf("ec2 must dominate: %v", inv)
	}
}
