// Package core implements the paper's contribution: the cloud Web-data
// warehouse architecture of Section 3 (Figure 1).
//
// Documents are stored as files in the S3 file store; the index lives in a
// key-value store (DynamoDB, or SimpleDB for the comparison with [8]); EC2
// virtual instances run the two application modules — the indexing module
// and the query processor — and SQS queues provide reliable asynchronous
// communication between the front end and the modules:
//
//	document in (1) -> S3 (2) -> loader request queue (3)
//	   -> indexing module (4): fetch (5), extract, index store (6)
//	query in (7) -> query request queue (8)
//	   -> query processor (9): index look-up (10-12), fetch documents
//	      (13), evaluate, results to S3 (14), query response queue (15)
//	front end: response (16) -> fetch results (17) -> return (18)
//
// Every step exists once. The live pipeline runs them on goroutines:
// StartIndexer / StartQueryProcessor spawn workers that long-poll the queues,
// renew message leases and survive instance crashes through SQS redelivery
// (one loop, runWorker, with a handler per module); a Frontend — one
// dispatcher routing responses to many callers by query ID — is the front
// end. The deterministic synchronous drivers the experiment
// harness uses call the same steps inline: RunQueryOn is steps 7-18 on the
// calling goroutine, so it issues exactly the same service requests — and
// metering and billing match the cost model — while IndexCorpusOn schedules
// documents round-robin over a fleet for reproducible modeled times. The
// response queue is shared: a receiver consumes only the responses it
// awaits and steps over the rest (DESIGN.md §5b).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cloud/chaos"
	"repro/internal/cloud/dynamodb"
	"repro/internal/cloud/kv"
	"repro/internal/cloud/s3"
	"repro/internal/cloud/simpledb"
	"repro/internal/cloud/sqs"
	"repro/internal/index"
	"repro/internal/meter"
	"repro/internal/mutate"
	"repro/internal/obs"
)

// Names of the warehouse's cloud resources.
const (
	Bucket        = "warehouse"
	LoaderQueue   = "loader-requests"
	QueryQueue    = "query-requests"
	ResponseQueue = "query-responses"
	// LoaderDeadLetters parks loading requests that repeatedly failed —
	// e.g. unparsable documents — so they stop being retried (SQS redrive
	// policy; see MaxLoadAttempts).
	LoaderDeadLetters = "loader-dead-letters"
	resultsPrefix     = "results/"
	docsPrefix        = "docs/"
)

// MaxLoadAttempts is how many times a loading request is delivered before
// it is moved to the dead-letter queue.
const MaxLoadAttempts = 5

// PerfModel calibrates the modeled CPU throughput of the application code,
// in bytes per second per ECU (an EC2 Compute Unit is the capacity of a
// 1.0-1.2 GHz 2007 Xeon, Section 8.1). Values are fitted so that the
// modeled times at the paper's 40 GB scale land in the ranges of Tables 4
// and Figure 9.
type PerfModel struct {
	// ParseBytesPerECUSec is the XML parsing rate (indexing and querying
	// both parse fetched documents).
	ParseBytesPerECUSec float64
	// ExtractBytesPerECUSec is the rate of producing serialized index
	// entries, charged on the entry bytes emitted.
	ExtractBytesPerECUSec float64
	// EvalBytesPerECUSec is the tree-pattern evaluation rate over parsed
	// documents.
	EvalBytesPerECUSec float64
	// PlanBytesPerECUSec is the rate of the look-up physical plan
	// (intersections, path filtering, holistic twig joins) over the bytes
	// fetched from the index.
	PlanBytesPerECUSec float64
}

// DefaultPerfModel returns the calibrated model.
func DefaultPerfModel() PerfModel {
	const mb = 1 << 20
	return PerfModel{
		ParseBytesPerECUSec:   2.4 * mb,
		ExtractBytesPerECUSec: 1.1 * mb,
		EvalBytesPerECUSec:    3.2 * mb,
		PlanBytesPerECUSec:    16 * mb,
	}
}

func (m PerfModel) withDefaults() PerfModel {
	d := DefaultPerfModel()
	if m.ParseBytesPerECUSec <= 0 {
		m.ParseBytesPerECUSec = d.ParseBytesPerECUSec
	}
	if m.ExtractBytesPerECUSec <= 0 {
		m.ExtractBytesPerECUSec = d.ExtractBytesPerECUSec
	}
	if m.EvalBytesPerECUSec <= 0 {
		m.EvalBytesPerECUSec = d.EvalBytesPerECUSec
	}
	if m.PlanBytesPerECUSec <= 0 {
		m.PlanBytesPerECUSec = d.PlanBytesPerECUSec
	}
	return m
}

// Config assembles a warehouse.
type Config struct {
	// Strategy is the indexing strategy maintained by the warehouse.
	Strategy index.Strategy
	// Backend selects the index store: "dynamodb" (default) or
	// "simpledb".
	Backend string
	// Perf overrides the performance model (zero fields take defaults).
	Perf PerfModel
	// CompressPaths front-codes LUP/2LUPI path lists in the index store
	// (the improvement the paper's conclusion suggests).
	CompressPaths bool
	// Seed is read by nothing: index range keys are content-derived and
	// Chaos carries its own seed. It stays because the benchmark module sets it.
	Seed int64
	// Ledger receives all metering; a fresh one is created when nil.
	Ledger *meter.Ledger

	// QueryWorkers bounds the worker pool that fetches, parses and
	// evaluates candidate documents during one query (step 13 of
	// Figure 1). 0 selects runtime.NumCPU(); 1 runs the sequential path.
	// Results and modeled times are identical at every setting — only real
	// wall-clock time changes.
	QueryWorkers int
	// QueryLookupConcurrency is read by nothing: the index look-up runs on
	// its query's goroutine. It stays because the benchmark module sets it.
	QueryLookupConcurrency int
	// PostingCacheBytes enables a hot-key posting cache of roughly that
	// many bytes in front of the index store. 0 disables it — the cache
	// changes the billed quantities of repeated look-ups (hits cost no
	// GetOps), so the paper-reproduction experiments run without it.
	PostingCacheBytes int64

	// BulkLoad enables the cross-document bulk loader on the synchronous
	// indexing driver (IndexCorpusOn), the paper's batching arm (Table 4
	// (cont.), Figure 7): a run's documents commit at its end, each key's
	// postings from all of them packed into one item (index.BulkLoader),
	// and extraction runs ahead of the loader in a bounded pipeline. Billed
	// rows fall to about one per key and requests to ceil(items/batch limit)
	// puts plus ceil(keys/read limit) reads per table, and modeled upload
	// time shrinks with them. Live indexing workers (StartIndexer) always
	// index per document. The store holds the same postings either way
	// (index.CheckLayout). Off by default.
	BulkLoad bool
	// PipelineDepth bounds the extraction read-ahead of the bulk indexing
	// driver's pipeline: how many documents are received ahead of the
	// loader, and, less one, how many are extracted at once. 0 selects 4;
	// 1 runs the driver, and the loader's commit, on one goroutine.
	// Results, modeled times and billing are identical at every depth —
	// only real wall-clock time changes.
	PipelineDepth int

	// Trace enables the pipeline span tracer. Spans diff the ledger and
	// enter a bounded journal (obs.DefaultJournalCapacity, oldest dropped
	// first); like the registry's always-on metrics they are side-effect-free
	// and draw no randomness, so a traced run is byte-identical to an
	// untraced one (the obs differential tests assert this). Off by default:
	// a span costs a ledger snapshot, which the hot query path should not pay
	// unless asked.
	Trace bool

	// MutableCorpus turns the warehouse into a live, mutable corpus:
	// indexing routes through a versioned write buffer (internal/mutate)
	// instead of writing the store directly, documents can be updated and
	// removed atomically (UpdateDocument, RemoveDocument), every query pins
	// a consistent snapshot version at admission, and a compactor folds the
	// buffer into the main store in group-committed batches (CompactNow,
	// or automatically via CompactEveryDocs). A fully compacted store is
	// byte-identical to a from-scratch build of the same corpus.
	MutableCorpus bool
	// CompactEveryDocs triggers a compaction pass after that many
	// mutations (inserts, updates, removes). 0 leaves compaction to
	// explicit CompactNow calls. Only meaningful with MutableCorpus.
	CompactEveryDocs int

	// Chaos, when set, interposes the seeded fault-injection layer between
	// the warehouse and all three cloud services — throttling, transient
	// errors and partial batches on the index store; duplicate delivery and
	// forced lease expiry on the queues; transient faults on the file store
	// — and fronts the index store with a kv.Retry so the injected store
	// faults are absorbed. The warehouse's exactly-once guarantees
	// (deterministic index range keys, lease-based redelivery) make the
	// final contents independent of the injected faults; tests assert that
	// differentially. Rates can be changed mid-run through ChaosInjector.
	Chaos *chaos.Plan
}

// fileService is the slice of the s3 API the warehouse consumes; the chaos
// file wrapper implements it too.
type fileService interface {
	CreateBucket(name string) error
	Put(bkt, key string, data []byte, userMeta map[string]string) (time.Duration, error)
	Get(bkt, key string) (s3.Object, time.Duration, error)
	Delete(bkt, key string) (time.Duration, error)
	List(bkt, prefix string) ([]string, time.Duration, error)
	BucketBytes(bkt string) int64
}

// queueService is the slice of the sqs API the warehouse consumes; the
// chaos queue wrapper implements it too.
type queueService interface {
	CreateQueue(name string) error
	SetRedrivePolicy(queueName, deadLetterQueue string, maxReceive int) error
	Send(queueName, body string) (string, time.Duration, error)
	Receive(ctx context.Context, queueName string, visibility, wait time.Duration) (*sqs.Message, time.Duration, error)
	Delete(queueName, receipt string) (time.Duration, error)
	ChangeVisibility(queueName, receipt string, visibility time.Duration) (time.Duration, error)
	Len(queueName string) int
}

// Warehouse wires the cloud services of Figure 1 together.
type Warehouse struct {
	Strategy index.Strategy
	Perf     PerfModel

	compressPaths bool
	queryWorkers  int
	lookupOpts    index.LookupOptions
	cache         *index.PostingCache

	bulkLoad      bool
	pipelineDepth int

	ledger *meter.Ledger
	files  fileService
	store  kv.Store
	queues queueService

	// The unwrapped services, for inspection (dumps, queue lengths) and the
	// accessors; identical to the fields above when no chaos layer is set.
	baseFiles  *s3.Service
	baseStore  kv.Store
	baseQueues *sqs.Service

	chaosInj *chaos.Injector
	retry    *kv.Retry

	// corpus is the mutable-corpus state machine (nil unless
	// Config.MutableCorpus); compactEvery its auto-compaction threshold.
	corpus       *mutate.Corpus
	compactEvery int

	reg    *obs.Registry
	tracer *obs.Tracer // nil unless Config.Trace
	met    coreMetrics

	querySeq atomic.Int64
}

// coreMetrics holds the warehouse's hot-path instruments, resolved once at
// construction so instrumented code never takes the registry lock.
type coreMetrics struct {
	submitDocs    *obs.Counter
	submitQueries *obs.Counter

	queryProcessed *obs.Counter
	queryFailed    *obs.Counter

	workerProcessed    *obs.Counter
	workerFailures     *obs.Counter
	workerRedeliveries *obs.Counter
	leaseRenewals      *obs.Counter
	// Long polls of the live loops (workers and the dispatcher) that came
	// back empty: each is a billed receive that delivered nothing.
	receiveEmpty *obs.Counter

	lookupGetOps         *obs.Counter
	lookupBytes          *obs.Counter
	lookupTwigCandidates *obs.Counter
	lookupStoreRetries   *obs.Counter
	lookupGetTimeNS      *obs.Counter
	cacheHits            *obs.Counter
	cacheMisses          *obs.Counter
	cacheEvictions       *obs.Counter
	joins                index.JoinCounters

	// Nodes the query-path parses counted in the candidate documents, and
	// how many of them they built for the evaluator.
	nodesScanned *obs.Counter
	nodesBuilt   *obs.Counter

	queryResponse  *obs.Histogram
	queryLookup    *obs.Histogram
	queryPlan      *obs.Histogram
	queryFetchEval *obs.Histogram
	indexExtract   *obs.Histogram
	indexUpload    *obs.Histogram
}

func resolveMetrics(r *obs.Registry) coreMetrics {
	return coreMetrics{
		submitDocs:    r.Counter("core.submit.documents"),
		submitQueries: r.Counter("core.submit.queries"),

		queryProcessed: r.Counter("core.query.processed"),
		queryFailed:    r.Counter("core.query.failed"),

		workerProcessed:    r.Counter("core.worker.processed"),
		workerFailures:     r.Counter("core.worker.failures"),
		workerRedeliveries: r.Counter("core.worker.redeliveries"),
		leaseRenewals:      r.Counter("core.worker.lease_renewals"),
		receiveEmpty:       r.Counter("sqs.receive.empty"),

		lookupGetOps:         r.Counter("index.lookup.get_ops"),
		lookupBytes:          r.Counter("index.lookup.bytes_fetched"),
		lookupTwigCandidates: r.Counter("index.lookup.twig_candidates"),
		lookupStoreRetries:   r.Counter("index.lookup.store_retries"),
		lookupGetTimeNS:      r.Counter("index.lookup.get_time_ns"),
		cacheHits:            r.Counter("index.cache.hits"),
		cacheMisses:          r.Counter("index.cache.misses"),
		cacheEvictions:       r.Counter("index.cache.evictions"),
		joins: index.JoinCounters{
			BlocksRead:    r.Counter("index.join.blocks_read"),
			BlocksSkipped: r.Counter("index.join.blocks_skipped"),
			PostingsBuilt: r.Counter("index.lookup.postings_built"),
		},

		nodesScanned: r.Counter("xmltree.nodes.scanned"),
		nodesBuilt:   r.Counter("xmltree.nodes.built"),

		queryResponse:  r.Histogram("core.query.response"),
		queryLookup:    r.Histogram("core.query.lookup"),
		queryPlan:      r.Histogram("core.query.plan"),
		queryFetchEval: r.Histogram("core.query.fetch_eval"),
		indexExtract:   r.Histogram("core.index.extract"),
		indexUpload:    r.Histogram("core.index.upload"),
	}
}

// New provisions the warehouse's bucket, queues and index tables.
func New(cfg Config) (*Warehouse, error) {
	ledger := cfg.Ledger
	if ledger == nil {
		ledger = meter.NewLedger()
	}
	var baseStore *kv.MemStore
	switch cfg.Backend {
	case "", dynamodb.Backend:
		baseStore = dynamodb.New(ledger)
	case simpledb.Backend:
		baseStore = simpledb.New(ledger)
	default:
		return nil, fmt.Errorf("core: unknown backend %q", cfg.Backend)
	}
	baseFiles := s3.New(ledger)
	baseQueues := sqs.New(ledger)
	reg := obs.NewRegistry()
	w := &Warehouse{
		Strategy:      cfg.Strategy,
		Perf:          cfg.Perf.withDefaults(),
		compressPaths: cfg.CompressPaths,
		queryWorkers:  cfg.QueryWorkers,
		bulkLoad:      cfg.BulkLoad,
		pipelineDepth: cfg.PipelineDepth,
		ledger:        ledger,
		files:         baseFiles,
		store:         baseStore,
		queues:        baseQueues,
		baseFiles:     baseFiles,
		baseStore:     baseStore,
		baseQueues:    baseQueues,
		reg:           reg,
		met:           resolveMetrics(reg),
	}
	w.lookupOpts.Joins = &w.met.joins
	publishArenaStats(reg, baseStore)
	if cfg.Trace {
		w.tracer = obs.NewTracer(ledger, 0)
	}
	if cfg.Chaos != nil {
		// One injector drives all three wrappers, so a single seed fixes
		// the whole fault schedule; the retry layer in front of the store
		// absorbs the injected kv faults (and any real throttling).
		w.chaosInj = chaos.NewInjector(*cfg.Chaos)
		w.chaosInj.SetSink(reg)
		w.files = chaos.WrapFiles(baseFiles, w.chaosInj)
		w.queues = chaos.WrapQueues(baseQueues, w.chaosInj)
		w.retry = kv.NewRetry(chaos.WrapStore(baseStore, w.chaosInj))
		w.retry.Seed = cfg.Chaos.Seed + 1
		w.retry.Sink = reg
		w.store = w.retry
	}
	if cfg.PostingCacheBytes > 0 {
		w.cache = index.NewPostingCache(cfg.PostingCacheBytes)
		w.lookupOpts.Cache = w.cache
	}
	if cfg.MutableCorpus {
		if cfg.BulkLoad {
			// The bulk loader writes the store directly; on a mutable
			// corpus all writes must route through the buffer, whose
			// compaction provides the same batch packing.
			return nil, fmt.Errorf("core: MutableCorpus is incompatible with BulkLoad")
		}
		// The corpus fronts the full store stack (retry/chaos), so
		// compaction folds enjoy the same fault absorption as direct writes.
		w.corpus = mutate.NewCorpus(w.store, mutate.Options{Obs: reg})
		w.compactEvery = cfg.CompactEveryDocs
	}
	if err := w.files.CreateBucket(Bucket); err != nil {
		return nil, err
	}
	for _, q := range []string{LoaderQueue, QueryQueue, ResponseQueue, LoaderDeadLetters} {
		if err := w.queues.CreateQueue(q); err != nil {
			return nil, err
		}
	}
	if err := w.queues.SetRedrivePolicy(LoaderQueue, LoaderDeadLetters, MaxLoadAttempts); err != nil {
		return nil, err
	}
	if err := index.CreateTables(w.store, cfg.Strategy); err != nil {
		return nil, err
	}
	return w, nil
}

// publishArenaStats registers the index store's physical footprint, summed
// over its tables, as the kv.arena.* metrics, read from the store whenever
// the registry is exported. A table rewrite runs under the store's write
// lock; dead_bytes closing in on live_bytes and a step in rewrites are how
// such a stall on a mutable warehouse is told from /metrics.
func publishArenaStats(reg *obs.Registry, store *kv.MemStore) {
	total := func() (sum kv.ArenaStats) {
		for _, t := range store.Tables() {
			st := store.ArenaStats(t)
			sum.LiveBytes += st.LiveBytes
			sum.DeadBytes += st.DeadBytes
			sum.Chunks += st.Chunks
			sum.Rewrites += st.Rewrites
		}
		return sum
	}
	reg.GaugeFunc(kv.MetricArenaLiveBytes, func() int64 { return total().LiveBytes })
	reg.GaugeFunc(kv.MetricArenaDeadBytes, func() int64 { return total().DeadBytes })
	reg.GaugeFunc(kv.MetricArenaChunks, func() int64 { return total().Chunks })
	reg.CounterFunc(kv.MetricArenaRewrites, func() int64 { return total().Rewrites })
}

// Ledger exposes the metering ledger (billing, experiment measurements).
func (w *Warehouse) Ledger() *meter.Ledger { return w.ledger }

// Files exposes the underlying file store (unwrapped: reads through it see
// the true stored objects even under chaos).
func (w *Warehouse) Files() *s3.Service { return w.baseFiles }

// Store exposes the index store the warehouse operates on — the retry-
// fronted chaos wrapper when Config.Chaos is set, the bare store otherwise.
func (w *Warehouse) Store() kv.Store { return w.store }

// BaseStore exposes the unwrapped index store, e.g. for dumping table
// contents in differential tests.
func (w *Warehouse) BaseStore() kv.Store { return w.baseStore }

// Queues exposes the underlying queue service (unwrapped; queue lengths
// and DLQ inspection are unaffected by chaos wrapping).
func (w *Warehouse) Queues() *sqs.Service { return w.baseQueues }

// ChaosInjector exposes the chaos decision source, or nil when no chaos
// layer is configured; tests use it to change rates mid-run (e.g. quiesce
// injection before a verification phase).
func (w *Warehouse) ChaosInjector() *chaos.Injector { return w.chaosInj }

// Registry exposes the warehouse's metrics registry.
func (w *Warehouse) Registry() *obs.Registry { return w.reg }

// Tracer exposes the pipeline span tracer, or nil when Config.Trace is off.
func (w *Warehouse) Tracer() *obs.Tracer { return w.tracer }

// RetryStats reports the degradation absorbed by the store retry layer
// (zero value when no chaos layer is configured). It is a registry view:
// the retry wrapper mirrors every counter into the registry's kv.retry.*
// metrics, as the chaos injector does its fault tallies into chaos.*.
func (w *Warehouse) RetryStats() kv.RetryStats {
	if w.retry == nil {
		return kv.RetryStats{}
	}
	return kv.RetryStats{
		Retries:          w.reg.Counter(kv.MetricRetries).Value(),
		Throttles:        w.reg.Counter(kv.MetricRetryThrottles).Value(),
		Internal:         w.reg.Counter(kv.MetricRetryInternal).Value(),
		PartialBatches:   w.reg.Counter(kv.MetricPartialBatches).Value(),
		ItemsResubmitted: w.reg.Counter(kv.MetricItemsResubmitted).Value(),
		KeysRefetched:    w.reg.Counter(kv.MetricKeysRefetched).Value(),
		GaveUp:           w.reg.Counter(kv.MetricGaveUp).Value(),
	}
}

// DataBytes returns the stored document bytes (s(D)).
func (w *Warehouse) DataBytes() int64 { return w.baseFiles.BucketBytes(Bucket) }

// IndexBytes returns the index store footprint: raw user bytes and the
// store's own overhead (sr(D,I) and ovh(D,I) of Section 7.1).
func (w *Warehouse) IndexBytes() (raw, overhead int64) {
	for _, t := range w.Strategy.Tables() {
		raw += w.store.TableBytes(t)
		overhead += w.store.OverheadBytes(t)
	}
	return raw, overhead
}

// IndexItems returns the number of items in the index tables (|op(D,I)|
// under the per-row billing model).
func (w *Warehouse) IndexItems() int64 {
	var n int64
	for _, t := range w.Strategy.Tables() {
		n += w.store.ItemCount(t)
	}
	return n
}

// indexOptions returns the extraction options for the warehouse's store,
// honouring the path-compression setting.
func (w *Warehouse) indexOptions() index.Options {
	opts := index.OptionsFor(w.store)
	opts.CompressPaths = w.compressPaths
	return opts
}

// DocKey maps a document URI to its S3 object key.
func DocKey(uri string) string { return docsPrefix + uri }

// DocumentURIs lists the URIs of all stored documents.
func (w *Warehouse) DocumentURIs() ([]string, error) {
	keys, _, err := w.files.List(Bucket, docsPrefix)
	if err != nil {
		return nil, err
	}
	uris := make([]string, len(keys))
	for i, k := range keys {
		uris[i] = k[len(docsPrefix):]
	}
	return uris, nil
}

// ErrQueryFailed wraps a processing-side failure reported through the
// response queue.
var ErrQueryFailed = errors.New("core: query processing failed")

// nextQueryID is step 7: the ID a query's messages, result and spans carry.
func (w *Warehouse) nextQueryID() string { return fmt.Sprintf("q-%06d", w.querySeq.Add(1)) }

// noteLookup folds one look-up's statistics into the registry's
// index.lookup.* and index.cache.* counters.
func (w *Warehouse) noteLookup(lst index.LookupStats) {
	w.met.lookupGetOps.Add(lst.GetOps)
	w.met.lookupBytes.Add(lst.BytesFetched)
	w.met.lookupTwigCandidates.Add(int64(lst.TwigCandidates))
	w.met.lookupStoreRetries.Add(lst.StoreRetries)
	w.met.lookupGetTimeNS.Add(int64(lst.GetTime))
	w.met.cacheHits.Add(lst.CacheHits)
	w.met.cacheMisses.Add(lst.CacheMisses)
	w.met.cacheEvictions.Add(lst.CacheEvictions)
}

// docWorkers is the effective step-13 worker-pool size.
func (w *Warehouse) docWorkers() int {
	if w.queryWorkers > 0 {
		return w.queryWorkers
	}
	return runtime.NumCPU()
}
