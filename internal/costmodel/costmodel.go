// Package costmodel implements the paper's monetary cost model (Section 7):
// closed-form estimates of what a cloud provider charges for uploading,
// indexing, hosting and querying a Web data warehouse, given the data-,
// index- and query-determined metrics of Section 7.1 and the provider price
// book of Section 7.2.
//
// The formulas are transcribed verbatim from Section 7.3. The experiment
// harness uses them two ways: predictively (plug in expected metrics) and
// as a cross-check against the "actual charged costs" that the metering
// layer accumulates while the simulated services run — the two must agree,
// which is tested.
package costmodel

import (
	"repro/internal/pricing"
)

// USD re-exports the money type for convenience.
type USD = pricing.USD

// DatasetMetrics carries the data- and index-determined quantities of
// Section 7.1 for a document set D and indexing strategy I.
type DatasetMetrics struct {
	// Docs is |D|.
	Docs int64
	// DataGB is s(D), in GB.
	DataGB float64
	// IndexPutOps is |op(D,I)|: put operations needed to store the index.
	IndexPutOps int64
	// IndexRawGB is sr(D,I) and IndexOvhGB is ovh(D,I); their sum is
	// s(D,I), the stored index size.
	IndexRawGB float64
	IndexOvhGB float64
	// IndexingHours is tidx(D,I): from the first loading message retrieved
	// to the last one deleted.
	IndexingHours float64
	// VMType is the instance type that ran the indexing ("l" or "xl") and
	// VMCount how many ran in parallel.
	VMType  string
	VMCount int
}

// IndexGB returns s(D,I) = sr(D,I) + ovh(D,I).
func (m DatasetMetrics) IndexGB() float64 { return m.IndexRawGB + m.IndexOvhGB }

// QueryMetrics carries the query-determined quantities of Section 7.1.
type QueryMetrics struct {
	// ResultGB is |r(q)|, in GB.
	ResultGB float64
	// IndexGetOps is |op(q,D,I)|: get operations used by the look-up.
	IndexGetOps int64
	// DocsRetrieved is |D^q_I| (or |D| when no index is used).
	DocsRetrieved int64
	// ProcessingHours is ptq(q,D,I,D^q_I) (or pt(q,D)): from the query
	// message retrieved to the message deleted.
	ProcessingHours float64
	// VMType is the instance type processing the query.
	VMType string
}

// UploadCost is ud$(D) = STput$ x |D| + QS$ x |D|: storing every document
// and sending its loading request message.
func UploadCost(p pricing.PriceBook, docs int64) USD {
	return p.STPut*USD(docs) + p.QSRequest*USD(docs)
}

// IndexBuildCost is ci$(D,I): the upload cost, plus one index put per
// entry-item, one S3 get per document (the indexer reads it back), the
// virtual machines' time, and two queue requests per document (retrieve
// the loading message, then delete it).
func IndexBuildCost(p pricing.PriceBook, m DatasetMetrics) USD {
	vm := p.VMHour[m.VMType] * USD(m.IndexingHours) * USD(max64(1, int64(m.VMCount)))
	return UploadCost(p, m.Docs) +
		p.IDXPut*USD(m.IndexPutOps) +
		p.STGet*USD(m.Docs) +
		vm +
		p.QSRequest*USD(2*m.Docs)
}

// MonthlyStorageCost is st$m(D,I) = ST$m,GB x s(D) + IDX$m,GB x s(D,I).
// backend selects the index store's storage price.
func MonthlyStorageCost(p pricing.PriceBook, m DatasetMetrics, backend string) USD {
	idx := p.IDXMonthGB
	if backend == "simpledb" {
		idx = p.SDBMonthGB
	}
	return p.STMonthGB*USD(m.DataGB) + idx*USD(m.IndexGB())
}

// ResultRetrievalCost is rq$(q) = STget$ + egress$GB x |r(q)| + QS$ x 3:
// the front end fetches the results from the file store, pays egress for
// returning them, and issues three queue requests (send the query, retrieve
// the response reference, delete the response message).
func ResultRetrievalCost(p pricing.PriceBook, resultGB float64) USD {
	return p.STGet + p.EgressGB*USD(resultGB) + p.QSRequest*3
}

// QueryCostNoIndex is cq$(q,D): the retrieval cost, one S3 get per document
// in the warehouse, one S3 put for the results, the processing time, and
// three queue requests on the processing side.
func QueryCostNoIndex(p pricing.PriceBook, q QueryMetrics) USD {
	return ResultRetrievalCost(p, q.ResultGB) +
		p.STGet*USD(q.DocsRetrieved) +
		p.STPut +
		p.VMHour[q.VMType]*USD(q.ProcessingHours) +
		p.QSRequest*3
}

// QueryCostIndexed is cq$(q,D,I,D^q_I): like QueryCostNoIndex but reading
// only the looked-up documents and paying one index get per look-up
// operation.
func QueryCostIndexed(p pricing.PriceBook, q QueryMetrics) USD {
	return ResultRetrievalCost(p, q.ResultGB) +
		p.IDXGet*USD(q.IndexGetOps) +
		p.STGet*USD(q.DocsRetrieved) +
		p.STPut +
		p.VMHour[q.VMType]*USD(q.ProcessingHours) +
		p.QSRequest*3
}

// UpdateMetrics carries the write-path quantities of a mutable warehouse
// over an operating window: the document mutations applied and the billed
// re-writes the delta compactor issued folding them into the main index.
type UpdateMetrics struct {
	// Updates counts UpdateDocument calls. Each stores the new content
	// (one S3 put) and re-extracts the document on the instance; the index
	// writes themselves are deferred to the compactor.
	Updates int64
	// Removes counts RemoveDocument calls. The S3 delete is free (as on
	// real S3) and the tombstones bill only when compacted, so removes
	// contribute instance time but no per-call request charge.
	Removes int64
	// CompactPuts and CompactDeletes count the index rows the compactor
	// wrote and deleted. DynamoDB bills a deleted row as a written one, so
	// both price at IDXput$ per row, whatever the requests they shipped in:
	// the compactor batches deletes and puts alike, 25 rows a request, and
	// the batching moves the request count and the write instance's round
	// trips, not this pair. They are the "billed re-writes" of the LSM
	// trade-off: raising the compaction interval amortizes superseded
	// versions before they ever reach the store, shrinking this pair at the
	// price of a larger read-side merge buffer.
	CompactPuts    int64
	CompactDeletes int64
	// Hours is the instance time spent parsing, extracting and compacting.
	Hours float64
	// VMType is the instance type that ran the write path.
	VMType string
}

// UpdateCost extends the Section 7 model to the mutable warehouse: one S3
// put per update, one index write per row the compactor put or deleted, and
// the write path's instance time.
func UpdateCost(p pricing.PriceBook, m UpdateMetrics) USD {
	return p.STPut*USD(m.Updates) +
		p.IDXPut*USD(m.CompactPuts+m.CompactDeletes) +
		p.VMHour[m.VMType]*USD(m.Hours)
}

// PerMillionUpdates normalizes a window cost to dollars per million
// mutations, the unit the mutate benchmark reports.
func PerMillionUpdates(cost USD, mutations int64) USD {
	if mutations <= 0 {
		return 0
	}
	return cost / USD(mutations) * 1_000_000
}

// Benefit is the per-run saving of strategy I on workload W: the cost of
// answering W with no index minus the cost with the index (Section 8.3).
func Benefit(noIndex, indexed USD) USD { return noIndex - indexed }

// AmortizationCurve returns, for run counts 0..runs, the cumulated benefit
// minus the index building cost — Figure 13's #runs x benefit(I,W) −
// buildingCost(I). The index has paid for itself where the curve crosses
// zero.
func AmortizationCurve(buildCost, benefitPerRun USD, runs int) []USD {
	out := make([]USD, runs+1)
	for i := 0; i <= runs; i++ {
		out[i] = USD(i)*benefitPerRun - buildCost
	}
	return out
}

// BreakEvenRuns returns the smallest run count at which the cumulated
// benefit covers the build cost, or -1 if benefitPerRun is not positive.
func BreakEvenRuns(buildCost, benefitPerRun USD) int {
	if benefitPerRun <= 0 {
		return -1
	}
	runs := 0
	for cum := USD(0); cum < buildCost; cum += benefitPerRun {
		runs++
	}
	return runs
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
