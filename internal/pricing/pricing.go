// Package pricing holds the cloud provider's price book (Table 3 of the
// paper) and converts metered usage into dollars.
//
// The paper's experiments ran in the AWS Asia Pacific (Singapore) region in
// September-October 2012; Singapore2012 reproduces those prices verbatim.
// The SimpleDB prices (used only by the Section 8.4 comparison with the
// earlier system [8]) are not part of Table 3; they are calibrated so that
// the per-MB cost ratios of Tables 7-8 hold.
package pricing

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/meter"
)

// GB is the number of bytes the provider bills as one gigabyte.
const GB = 1 << 30

// USD is an amount of money in dollars.
type USD float64

// String formats the amount the way the paper prints prices.
func (u USD) String() string {
	return fmt.Sprintf("$%.5f", float64(u))
}

// PriceBook lists every unit price relevant to the warehouse, mirroring
// Section 7.2 of the paper.
type PriceBook struct {
	// File store (S3).
	STMonthGB USD // ST$m,GB: storing 1 GB for one month
	STPut     USD // STput$: per document storage request
	STGet     USD // STget$: per document retrieval request

	// Index store (DynamoDB).
	IDXMonthGB USD // IDX$m,GB: storing 1 GB of index for one month
	IDXPut     USD // IDXput$: per row inserted
	IDXGet     USD // IDXget$: per row retrieved

	// Legacy index store (SimpleDB), for the comparison with [8].
	SDBMonthGB USD
	SDBPut     USD
	SDBGet     USD

	// Virtual machines, per instance type name (e.g. "l", "xl").
	VMHour map[string]USD

	// Queue service, per API request.
	QSRequest USD

	// Data transferred out of the cloud, per GB.
	EgressGB USD
}

// Singapore2012 returns the AWS Singapore price book of Table 3
// (September-October 2012).
func Singapore2012() PriceBook {
	return PriceBook{
		STMonthGB:  0.125,
		STPut:      0.000011,
		STGet:      0.0000011,
		IDXMonthGB: 1.14,
		IDXPut:     0.00000032,
		IDXGet:     0.000000032,
		// SimpleDB (2012): billed by box-usage; expressed here as
		// effective per-request prices, an order of magnitude above
		// DynamoDB, plus the 0.275 $/GB-month storage price the paper
		// reports for the index of [8].
		SDBMonthGB: 0.275,
		SDBPut:     0.0000056,
		SDBGet:     0.00000056,
		VMHour:     map[string]USD{"l": 0.34, "xl": 0.68},
		QSRequest:  0.000001,
		EgressGB:   0.19,
	}
}

// Invoice decomposes a bill by service, as in Table 6 and Figure 12.
type Invoice struct {
	Lines map[string]USD
}

// Total sums all lines.
func (inv Invoice) Total() USD {
	var t USD
	for _, v := range inv.Lines {
		t += v
	}
	return t
}

// Line returns the amount billed for one service (zero if absent).
func (inv Invoice) Line(service string) USD { return inv.Lines[service] }

// Add merges another invoice into a new one.
func (inv Invoice) Add(other Invoice) Invoice {
	sum := Invoice{Lines: make(map[string]USD, len(inv.Lines))}
	for k, v := range inv.Lines {
		sum.Lines[k] += v
	}
	for k, v := range other.Lines {
		sum.Lines[k] += v
	}
	return sum
}

// String renders the invoice with deterministic line order.
func (inv Invoice) String() string {
	keys := make([]string, 0, len(inv.Lines))
	for k := range inv.Lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-10s %s\n", k, inv.Lines[k])
	}
	fmt.Fprintf(&b, "%-10s %s\n", "total", inv.Total())
	return b.String()
}

// Bill converts a usage snapshot into an invoice. Request-based services are
// billed per the paper's model:
//
//   - s3: STPut per put call, STGet per get/list call;
//   - dynamodb: IDXPut per row written (a batch writing 25 rows bills 25
//     units), IDXGet per row read;
//   - simpledb: same scheme with the SimpleDB prices;
//   - sqs: QSRequest per API call of any kind;
//   - ec2: VMHour x fractional busy hours, per instance type;
//   - egress: EgressGB x outbound GB.
//
// Monthly storage is billed separately by StorageMonthly, since it depends
// on the billing horizon rather than on activity.
func (p PriceBook) Bill(u meter.Usage) Invoice {
	inv := Invoice{Lines: make(map[string]USD)}
	add := func(service string, amount USD) {
		if amount != 0 {
			inv.Lines[service] += amount
		}
	}
	for _, op := range u.Ops() {
		c := u.Get(op.Service, op.Name)
		switch op.Service {
		case "s3":
			if op.Name == "put" {
				add("s3", p.STPut*USD(c.Calls))
			} else {
				add("s3", p.STGet*USD(c.Calls))
			}
		case "dynamodb":
			if op.Name == "put" {
				add("dynamodb", p.IDXPut*USD(c.Units))
			} else {
				add("dynamodb", p.IDXGet*USD(c.Units))
			}
		case "simpledb":
			if op.Name == "put" {
				add("simpledb", p.SDBPut*USD(c.Units))
			} else {
				add("simpledb", p.SDBGet*USD(c.Units))
			}
		case "sqs":
			add("sqs", p.QSRequest*USD(c.Calls))
		default:
			// Unpriced service: ignored, consistent with the paper's
			// model which only bills the services above.
		}
	}
	for _, t := range u.InstanceTypes() {
		price, ok := p.VMHour[t]
		if !ok {
			continue
		}
		add("ec2", price*USD(u.InstanceSeconds(t)/3600))
	}
	add("egress", p.EgressGB*USD(float64(u.EgressBytes())/GB))
	return inv
}

// StorageMonthly bills one month of storage: dataBytes in the file store and
// indexBytes in the index store of the named backend ("dynamodb" or
// "simpledb").
func (p PriceBook) StorageMonthly(dataBytes, indexBytes int64, backend string) Invoice {
	inv := Invoice{Lines: make(map[string]USD)}
	if dataBytes > 0 {
		inv.Lines["s3"] = p.STMonthGB * USD(float64(dataBytes)/GB)
	}
	idxPrice := p.IDXMonthGB
	if backend == "simpledb" {
		idxPrice = p.SDBMonthGB
	}
	if indexBytes > 0 {
		inv.Lines[backend] = idxPrice * USD(float64(indexBytes)/GB)
	}
	return inv
}
