// Package dynamodb simulates Amazon DynamoDB, the key-value store hosting
// the warehouse index in the paper (Section 6).
//
// Simulated behaviour matching the real service as described in the paper:
//
//   - tables of items addressed by a composite hash + range primary key;
//     get(T,k) returns every item with hash key k;
//   - items of at most 64 KB; arbitrary binary attribute values (the
//     feature exploited to store compressed structural-ID sets);
//   - batchGet of up to 100 keys, and batchPut and batchDelete (the two
//     halves of BatchWriteItem) of up to 25 items per API request;
//   - provisioned throughput: the store serves a bounded number of
//     capacity units per second, shared among concurrent client threads,
//     which makes DynamoDB the bottleneck during parallel indexing
//     (Section 8.2) and damps the speed-up of many strong instances
//     (Figure 10);
//   - multiple tables cannot be queried by a single request; combining
//     results happens in the application layer.
package dynamodb

import (
	"time"

	"repro/internal/cloud/kv"
	"repro/internal/meter"
)

// Backend is the service name used for metering and billing.
const Backend = "dynamodb"

// MaxItemBytes is the DynamoDB item size cap the paper works around by
// splitting large index entries across several UUID-ranged items.
const MaxItemBytes = 64 << 10

// DefaultPerf models the service performance used throughout the
// experiments. Values are calibrated in internal/bench so that the modeled
// times reproduce the shapes of Tables 4 and 7 and Figures 7, 9 and 10.
func DefaultPerf() kv.Perf {
	return kv.Perf{
		RTT:            4 * time.Millisecond,
		WriteUnitBytes: 1 << 10,
		ReadUnitBytes:  4 << 10,
		// Aggregate provisioned capacity, units per second.
		WriteCapacityUnits: 5500,
		ReadCapacityUnits:  20000,
		// What a single sustained client thread can drive.
		ClientWriteUnits: 700,
		ClientReadUnits:  2500,
	}
}

// New returns a simulated DynamoDB endpoint recording into ledger.
func New(ledger *meter.Ledger) *kv.MemStore {
	return NewWithPerf(ledger, DefaultPerf())
}

// NewWithPerf returns a simulated DynamoDB endpoint with a custom
// performance model (used by calibration and ablation benches).
func NewWithPerf(ledger *meter.Ledger, perf kv.Perf) *kv.MemStore {
	return kv.NewMemStore(kv.Config{
		Backend: Backend,
		Limits: kv.Limits{
			MaxItemBytes:   MaxItemBytes,
			MaxValueBytes:  MaxItemBytes,
			BatchPutItems:  25,
			BatchGetKeys:   100,
			SupportsBinary: true,
		},
		Perf: perf,
		// DynamoDB bills roughly 100 bytes of indexing overhead per item.
		PerItemOverhead: 100,
		Ledger:          ledger,
	})
}
