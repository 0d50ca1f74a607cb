// Package simpledb simulates Amazon SimpleDB, the key-value store used by
// the paper's predecessor system [8] and compared against DynamoDB in
// Section 8.4 (Tables 7 and 8).
//
// The simulation captures the three properties that explain the measured
// gap with DynamoDB:
//
//   - attribute values are UTF-8 text of at most 1 KB — no binary values,
//     so structural-ID sets cannot be stored compressed and index entries
//     fragment into many more, smaller items;
//   - requests have a markedly higher round-trip time and the service
//     absorbs far fewer concurrent requests (lower capacity);
//   - there is no batch get; batch put and batch delete are limited to 25
//     items.
package simpledb

import (
	"time"

	"repro/internal/cloud/kv"
	"repro/internal/meter"
)

// Backend is the service name used for metering and billing.
const Backend = "simpledb"

// MaxValueBytes is SimpleDB's 1 KB attribute value cap.
const MaxValueBytes = 1 << 10

// DefaultPerf models SimpleDB's 2012 performance relative to DynamoDB:
// higher latency, much lower sustained throughput.
func DefaultPerf() kv.Perf {
	return kv.Perf{
		RTT:                30 * time.Millisecond,
		WriteUnitBytes:     1 << 10,
		ReadUnitBytes:      4 << 10,
		WriteCapacityUnits: 300,
		ReadCapacityUnits:  1200,
		ClientWriteUnits:   40,
		ClientReadUnits:    160,
	}
}

// New returns a simulated SimpleDB endpoint recording into ledger.
func New(ledger *meter.Ledger) *kv.MemStore {
	return NewWithPerf(ledger, DefaultPerf())
}

// NewWithPerf returns a simulated SimpleDB endpoint with a custom
// performance model.
func NewWithPerf(ledger *meter.Ledger, perf kv.Perf) *kv.MemStore {
	return kv.NewMemStore(kv.Config{
		Backend: Backend,
		Limits: kv.Limits{
			// One item may hold at most 256 attribute-value pairs of
			// at most 1 KB each.
			MaxItemBytes:   256 << 10,
			MaxValueBytes:  MaxValueBytes,
			BatchPutItems:  25,
			BatchGetKeys:   1, // no batch get in SimpleDB
			SupportsBinary: false,
		},
		Perf: perf,
		// SimpleDB bills 45 bytes per item name plus 45 bytes per
		// attribute name-value pair.
		PerItemOverhead:      45,
		PerAttrValueOverhead: 45,
		Ledger:               ledger,
	})
}
