package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/meter"
	"repro/internal/serve"
)

// Fixed settings of the mixed read/write warehouse.
const (
	compactEveryDocs  = 16
	postingCacheBytes = 8 << 20
	buildFleet        = 8 // large instances, as in the paper's Table 4
)

// clients is the closed-loop client count, and with it the number of serve
// workers and query processors: an idle processor would only add long polls
// to the bill whose number depends on timing.
const clients = 1

// procs is GOMAXPROCS of a run: the machine's cores, at most four. The one
// request in flight shares them with the collector and whatever the
// warehouse runs in parallel within a request.
func procs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// warehouseConfig returns the configuration a workload runs on. sequential
// selects the traced replay's configuration, in which every stage of a
// request runs on one goroutine, so harness-side spans nest and sum.
func warehouseConfig(wl string, seed int64, sequential bool) core.Config {
	cfg := core.Config{Strategy: index.TwoLUPI, Seed: seed}
	if wl == wlServeMixedRW {
		cfg.MutableCorpus = true
		cfg.CompactEveryDocs = compactEveryDocs
		cfg.PostingCacheBytes = postingCacheBytes
	} else {
		cfg.BulkLoad = true
	}
	if sequential {
		cfg.QueryWorkers = 1
		cfg.QueryLookupConcurrency = 1
		cfg.PipelineDepth = 1
	}
	return cfg
}

// built is a loaded and indexed warehouse.
type built struct {
	w      *core.Warehouse
	report core.IndexReport
	// loadUsage is everything the load and the indexing were billed.
	loadUsage meter.Usage
}

// buildWarehouse provisions a warehouse, submits the documents and indexes
// them on a fleet of large instances. A mutable warehouse is drained
// afterwards, so that what follows starts from an empty write buffer.
func buildWarehouse(cfg core.Config, docs []doc, fleetSize int) (*built, error) {
	w, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	b := &built{w: w}
	for _, d := range docs {
		if err := w.SubmitDocument(d.URI, d.Data); err != nil {
			return nil, fmt.Errorf("submitting %s: %w", d.URI, err)
		}
	}
	fleet := ec2.LaunchFleet(w.Ledger(), ec2.Large, fleetSize)
	b.report, err = w.IndexCorpusOn(fleet, nil)
	if err != nil {
		return nil, fmt.Errorf("indexing: %w", err)
	}
	if err := drain(w); err != nil {
		return nil, err
	}
	b.loadUsage = w.Ledger().Snapshot()
	return b, nil
}

// sliceDocs is how many documents a timed build indexes between two turns of
// the yardstick.
const sliceDocs = 40

// buildSliced is buildWarehouse with the clock stopped now and then: the
// documents are submitted and indexed sliceDocs at a time, on one fleet and
// into one warehouse, and after every slice the yardstick runs the laps that
// are due. It returns the time and the processor time the slices took.
func buildSliced(cfg core.Config, docs []doc, fleetSize int, pace *pacer) (b *built, wall, cpu time.Duration, err error) {
	c0, t0 := cpuTime(), time.Now()
	w, err := core.New(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	b = &built{w: w}
	fleet := ec2.LaunchFleet(w.Ledger(), ec2.Large, fleetSize)
	for len(docs) > 0 {
		n := min(sliceDocs, len(docs))
		for _, d := range docs[:n] {
			if err := w.SubmitDocument(d.URI, d.Data); err != nil {
				return nil, 0, 0, fmt.Errorf("submitting %s: %w", d.URI, err)
			}
		}
		rep, err := w.IndexCorpusOn(fleet, nil)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("indexing: %w", err)
		}
		b.report.Docs += rep.Docs
		docs = docs[n:]
		took := time.Since(t0)
		wall += took
		cpu += cpuTime() - c0
		pace.after(took)
		c0, t0 = cpuTime(), time.Now()
	}
	return b, wall, cpu, nil
}

// drain folds the whole write buffer of a mutable warehouse into the store;
// it does nothing on an immutable one.
func drain(w *core.Warehouse) error {
	if w.Corpus() == nil {
		return nil
	}
	in := ec2.Launch(w.Ledger(), ec2.XL)
	for pass := 0; w.Corpus().BufferedEntries() > 0; pass++ {
		if pass > 1000 {
			return fmt.Errorf("write buffer did not drain (%d entries left)", w.Corpus().BufferedEntries())
		}
		if _, err := w.CompactNow(in); err != nil {
			return fmt.Errorf("compacting: %w", err)
		}
	}
	return nil
}

// indexRatio is index bytes (raw plus store overhead) per byte of the
// documents the warehouse holds. The bucket's own size would not do: it also
// holds every query's result object.
func indexRatio(w *core.Warehouse, docs []doc) float64 {
	raw, overhead := w.IndexBytes()
	return ratio(float64(raw+overhead), float64(corpusBytes(docs)))
}

// daemon is the query server in front of a warehouse, on loopback, with the
// HTTP client the load generator drives it with.
type daemon struct {
	srv    *serve.Server
	url    string
	client *http.Client
}

// startDaemon stands the server up with one serve worker per client over
// backend.
func startDaemon(w *core.Warehouse, backend serve.Backend) (*daemon, error) {
	srv, err := serve.New(serve.Config{
		Backend:  backend,
		Registry: w.Registry(),
		Limits:   serve.Limits{Workers: clients, QueueDepth: 8 * clients},
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients}
	return &daemon{srv: srv, url: "http://" + addr, client: &http.Client{Transport: tr, Timeout: time.Minute}}, nil
}

// warehouseBackend launches one query processor per client on XL instances.
func warehouseBackend(w *core.Warehouse) *serve.WarehouseBackend {
	return serve.NewWarehouseBackend(w, clients, ec2.XL, core.WorkerOptions{})
}

// stop drains the server; it returns once the listener, the scheduler pool
// and the query processors have all ended.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}
