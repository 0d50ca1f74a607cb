// Command xwh is the warehouse in one process: it provisions the simulated
// cloud, loads documents (generated, from a directory, or the paintings
// example corpus), indexes them under a chosen strategy, answers queries
// from the command line, and prints statistics and the accumulated bill.
//
// Examples:
//
//	# index the paintings corpus under LUP and run a query
//	xwh -corpus paintings -strategy LUP -query '//painting[/name{val}]'
//
//	# generate 200 XMark documents, index under 2LUPI, run the workload
//	xwh -docs 200 -strategy 2LUPI -workload
//
//	# load XML files from a directory
//	xwh -dir ./corpus -strategy LUI -query '//item[//name{val}]' -stats
//
// Subcommands (before the flags):
//
//	# print the observability registry (counters, gauges, histograms)
//	xwh stats -corpus paintings -query '//painting[/name{val}]'
//
//	# print the span tree of one query ("last" or empty selects the
//	# final query of the run)
//	xwh trace last -corpus paintings -workload
//
//	# load, index, and serve queries over HTTP until SIGINT/SIGTERM
//	xwh serve -corpus paintings -addr 127.0.0.1:8080 -serve-workers 4
//
// The serve daemon exposes POST /query (JSON body {"query","useIndex"}),
// /billing.json, and the observability endpoints (/metrics, /trace.json,
// /healthz, /readyz). -serve-workers is both the query-processor count and
// how many queries run at once; -serve-queue is how many more may wait, and
// an arrival beyond that is shed with 429. On SIGINT/SIGTERM it drains every
// admitted request and exits 0.
//
// With -mutable the warehouse runs a mutable corpus: -update and -remove
// mutate documents atomically before querying, -compact-every sets the
// delta-compaction interval, and the serve daemon additionally accepts
// writes on PUT/DELETE /document?uri=... (PUT body = the new XML). Without
// -mutable the warehouse is append-only, and -update, -remove and
// -obs-smoke are refused before anything is loaded.
//
// -metrics-addr serves Prometheus text format on /metrics (plus /trace.json)
// while the process runs; -obs-smoke scrapes the exporter once over HTTP and
// verifies it parses.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/xmark"
)

func main() {
	// Subcommands ride in front of the flags: "xwh stats ..." and
	// "xwh trace <queryID> ...".
	mode, traceID := "", ""
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		mode = os.Args[1]
		rest := os.Args[2:]
		switch mode {
		case "stats":
		case "serve":
		case "trace":
			if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
				traceID = rest[0]
				rest = rest[1:]
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown subcommand %q (want stats, trace or serve)\n", mode)
			os.Exit(2)
		}
		os.Args = append(os.Args[:1:1], rest...)
	}
	corpus := flag.String("corpus", "", `built-in corpus: "paintings"`)
	dir := flag.String("dir", "", "load .xml files from this directory")
	docs := flag.Int("docs", 0, "generate this many XMark documents")
	docBytes := flag.Int("docbytes", 16<<10, "approximate bytes per generated document")
	strategy := flag.String("strategy", "LUP", "indexing strategy: LU, LUP, LUI, 2LUPI")
	backend := flag.String("backend", "dynamodb", "index store backend: dynamodb or simpledb")
	instances := flag.Int("instances", 2, "EC2 instances for indexing")
	instanceType := flag.String("type", "l", "instance type: l or xl")
	query := flag.String("query", "", "query to run (pattern or XQuery syntax, auto-detected)")
	explain := flag.Bool("explain", false, "print the look-up plan before running each query")
	noIndex := flag.Bool("no-index", false, "answer the query without using the index")
	runWorkload := flag.Bool("workload", false, "run the 10-query XMark workload")
	remove := flag.String("remove", "", "mutable: remove this document (file and index entries) before querying")
	mutable := flag.Bool("mutable", false, "run a mutable corpus: atomic updates, snapshot reads, delta compaction")
	compactEvery := flag.Int("compact-every", 16, "mutable: fold the write buffer after this many mutations (0 = only on demand)")
	update := flag.String("update", "", "mutable: update one document before querying, as uri=path/to.xml")
	repl := flag.Bool("repl", false, "read queries interactively from stdin after loading")
	stats := flag.Bool("stats", false, "print warehouse statistics and the bill")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /trace.json on this address while running")
	obsSmoke := flag.Bool("obs-smoke", false, "mutable: run a short write walk, scrape the metrics exporter once over HTTP, verify it parses, and report")
	serveAddr := flag.String("addr", "127.0.0.1:8080", "serve: listen address for the query daemon")
	serveWorkers := flag.Int("serve-workers", 0, "serve: query processors, and queries run at once (0 = NumCPU)")
	serveQueue := flag.Int("serve-queue", 0, "serve: queries that may wait beyond those running (0 = 4x workers)")
	flag.Parse()
	// The write flags act on a mutable corpus only: refuse them before
	// anything is generated, loaded or indexed.
	for _, f := range []struct {
		name string
		set  bool
	}{{"update", *update != ""}, {"remove", *remove != ""}, {"obs-smoke", *obsSmoke}} {
		if f.set && !*mutable {
			fmt.Fprintf(os.Stderr, "-%s needs -mutable\n", f.name)
			os.Exit(2)
		}
	}

	s, err := index.ByName(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	typ, err := ec2.TypeByName(*instanceType)
	if err != nil {
		log.Fatal(err)
	}

	wh, err := core.New(core.Config{
		Strategy: s, Backend: *backend, Trace: mode == "trace",
		MutableCorpus: *mutable, CompactEveryDocs: *compactEvery,
	})
	if err != nil {
		log.Fatal(err)
	}
	var metricsAt string
	if *metricsAddr != "" {
		if metricsAt, err = serveMetrics(*metricsAddr, wh); err != nil {
			log.Fatal(err)
		}
	}

	var (
		loaded int
		docsIn []xmark.Doc // what was loaded, for the -obs-smoke write walk
	)
	submit := func(uri string, data []byte) {
		if err := wh.SubmitDocument(uri, data); err != nil {
			log.Fatalf("submitting %s: %v", uri, err)
		}
		loaded++
		if *obsSmoke {
			docsIn = append(docsIn, xmark.Doc{URI: uri, Data: data})
		}
	}
	switch {
	case *corpus == "paintings":
		for _, d := range xmark.Paintings() {
			submit(d.URI, d.Data)
		}
	case *dir != "":
		entries, err := os.ReadDir(*dir)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(*dir, e.Name()))
			if err != nil {
				log.Fatal(err)
			}
			submit(e.Name(), data)
		}
	case *docs > 0:
		cfg := xmark.DefaultConfig(*docs)
		cfg.TargetDocBytes = *docBytes
		for i := 0; i < cfg.Docs; i++ {
			d := xmark.GenerateDoc(cfg, i)
			submit(d.URI, d.Data)
		}
	default:
		fmt.Fprintln(os.Stderr, "nothing to load: pass -corpus paintings, -dir, or -docs")
		flag.Usage()
		os.Exit(2)
	}

	fleet := ec2.LaunchFleet(wh.Ledger(), typ, *instances)
	rep, err := wh.IndexCorpusOn(fleet, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d documents under %s on %d %s instance(s): %d entries, %d items, %v modeled\n",
		rep.Docs, s.Name(), *instances, typ.Name, rep.Entries, rep.Items, rep.Total)

	if mode == "serve" {
		runServe(wh, typ, serveConfig{addr: *serveAddr, workers: *serveWorkers, queue: *serveQueue})
		return
	}

	processor := ec2.Launch(wh.Ledger(), typ)
	if *update != "" {
		uri, path, ok := strings.Cut(*update, "=")
		if !ok || uri == "" || path == "" {
			log.Fatal("-update wants uri=path/to.xml")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := wh.UpdateDocument(processor, uri, data); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("updated %s (%d bytes, corpus version bumped)\n", uri, len(data))
	}
	if *remove != "" {
		if err := wh.RemoveDocument(processor, *remove); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("removed %s (file and index entries)\n", *remove)
	}
	book := pricing.Singapore2012()
	var lastID string
	run := func(name, text string) {
		if *explain && !*noIndex {
			if q, err := core.ParseQueryText(text); err == nil {
				fmt.Println()
				fmt.Print(index.ExplainLookup(s, q))
			}
		}
		before := wh.Ledger().Snapshot()
		res, st, err := wh.RunQueryOn(processor, text, !*noIndex)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		lastID = st.ID
		fmt.Printf("\n%s: %s\n", name, text)
		fmt.Printf("  index gets=%d  docs fetched=%d  rows=%d  modeled response=%v\n",
			st.Lookup.GetOps, st.DocsFetched, len(res.Rows), st.ResponseTime)
		fmt.Printf("  lookup: get time=%v  bytes=%d  twig candidates=%d  cache hits=%d misses=%d  store retries=%d\n",
			st.Lookup.GetTime, st.Lookup.BytesFetched, st.Lookup.TwigCandidates,
			st.Lookup.CacheHits, st.Lookup.CacheMisses, st.Lookup.StoreRetries)
		inv := book.Bill(wh.Ledger().Snapshot().Sub(before))
		var parts []string
		for _, svc := range []string{"s3", "dynamodb", "simpledb", "sqs", "egress"} {
			if amt := inv.Line(svc); amt != 0 {
				parts = append(parts, fmt.Sprintf("%s %v", svc, amt))
			}
		}
		fmt.Printf("  billed: %v (%s)\n", inv.Total(), strings.Join(parts, ", "))
		for i, row := range res.Rows {
			if i == 20 {
				fmt.Printf("  ... %d more rows\n", len(res.Rows)-20)
				break
			}
			cols := make([]string, len(row.Cols))
			for j, c := range row.Cols {
				if len(c) > 48 {
					c = c[:45] + "..."
				}
				cols[j] = c
			}
			fmt.Printf("  %s  (%s)\n", strings.Join(cols, " | "), row.URI)
		}
	}
	if *query != "" {
		run("query", *query)
	}
	if *runWorkload {
		for _, q := range workload.XMark() {
			run(q.Name, q.Text)
		}
	}
	if *repl {
		fmt.Println("\nenter queries (pattern or XQuery syntax), one per line; empty line quits")
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for n := 1; ; n++ {
			fmt.Print("xwh> ")
			if !sc.Scan() {
				break
			}
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				break
			}
			if _, err := core.ParseQueryText(line); err != nil {
				fmt.Println("  parse error:", err)
				continue
			}
			run(fmt.Sprintf("#%d", n), line)
		}
	}

	if *stats {
		raw, ovh := wh.IndexBytes()
		fmt.Printf("\nwarehouse statistics:\n")
		fmt.Printf("  documents: %d (%.2f MB in the file store)\n", loaded, float64(wh.DataBytes())/(1<<20))
		fmt.Printf("  index: %.2f MB content + %.2f MB store overhead, %d items\n",
			float64(raw)/(1<<20), float64(ovh)/(1<<20), wh.IndexItems())
		fmt.Printf("\naccumulated bill (activity):\n%s", book.Bill(wh.Ledger().Snapshot()))
		fmt.Printf("\nmonthly storage:\n%s", book.StorageMonthly(wh.DataBytes(), raw+ovh, *backend))
	}

	switch mode {
	case "stats":
		fmt.Printf("\nobservability registry:\n")
		obs.WriteText(os.Stdout, wh.Registry())
	case "trace":
		id := traceID
		if id == "" || id == "last" {
			id = lastID
		}
		spans := wh.Tracer().QuerySpans(id)
		if len(spans) == 0 {
			fmt.Printf("\nno spans recorded for query %q (run a -query or -workload)\n", id)
			os.Exit(1)
		}
		fmt.Printf("\ntrace of %s:\n%s", id, obs.FormatTree(spans))
	}
	if *obsSmoke {
		if err := smokeWrites(wh, fleet, processor, docsIn); err != nil {
			log.Fatalf("obs-smoke: %v", err)
		}
		if err := smokeScrape(metricsAt, wh); err != nil {
			log.Fatalf("obs-smoke: %v", err)
		}
	}
}

// serveConfig carries the daemon flags.
type serveConfig struct {
	addr    string
	workers int // query processors, and queries run at once; 0 = NumCPU
	queue   int
}

// newServer builds the query daemon over wh: cfg.workers live query
// processors behind a server that runs as many queries at once. A zero
// count is resolved here, once, so that the two agree.
func newServer(wh *core.Warehouse, typ ec2.InstanceType, cfg serveConfig) (*serve.Server, *serve.WarehouseBackend, error) {
	if cfg.workers <= 0 {
		cfg.workers = runtime.NumCPU()
	}
	backend := serve.NewWarehouseBackend(wh, cfg.workers, typ, core.WorkerOptions{})
	book := pricing.Singapore2012()
	s, err := serve.New(serve.Config{
		Backend:  backend,
		Registry: wh.Registry(),
		Tracer:   wh.Tracer(),
		Bill:     func() pricing.Invoice { return book.Bill(wh.Ledger().Snapshot()) },
		Limits:   serve.Limits{Workers: cfg.workers, QueueDepth: cfg.queue},
	})
	if err != nil {
		backend.Close()
		return nil, nil, err
	}
	return s, backend, nil
}

// banner is the line the daemon announces its address with.
func banner(addr string, s *serve.Server, backend *serve.WarehouseBackend) string {
	return fmt.Sprintf("serving queries on http://%s/query (%d query processors, queue %d)",
		addr, backend.Workers(), s.Limits().QueueDepth)
}

// runServe turns the loaded warehouse into the query daemon, served over
// HTTP until SIGINT/SIGTERM, then drained gracefully.
func runServe(wh *core.Warehouse, typ ec2.InstanceType, cfg serveConfig) {
	s, backend, err := newServer(wh, typ, cfg)
	if err != nil {
		log.Fatal(err)
	}
	addr, err := s.Start(cfg.addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(banner(addr, s, backend))
	if backend.Writable() {
		fmt.Printf("accepting writes on PUT/DELETE http://%s/document?uri=...\n", addr)
	}
	fmt.Printf("observability on http://%s/metrics, billing on http://%s/billing.json\n", addr, addr)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	fmt.Println("draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	fmt.Println("drained; bye")
}

// serveMetrics starts the HTTP exporter on addr and returns the bound
// address (useful with port 0).
func serveMetrics(addr string, wh *core.Warehouse) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, obs.Handler(wh.Registry(), wh.Tracer()))
	fmt.Printf("serving metrics on http://%s/metrics\n", ln.Addr())
	return ln.Addr().String(), nil
}

// smokeWrites is a short write walk in the manner of the benchmark's
// serve-mixed-rw workload, so that the write-side metrics have something to
// report when smokeScrape reads them: one and a half passes over the corpus,
// each step removing a document and adding it back with its neighbour's
// content. One pass overwrites about as many index bytes as are stored,
// which makes the store rewrite its tables once; the half pass after it
// leaves dead bytes behind.
func smokeWrites(wh *core.Warehouse, fleet []*ec2.Instance, in *ec2.Instance, corpus []xmark.Doc) error {
	for i := 0; i < len(corpus)*3/2; i++ {
		uri := corpus[i%len(corpus)].URI
		if err := wh.RemoveDocument(in, uri); err != nil {
			return err
		}
		if err := wh.SubmitDocument(uri, corpus[(i+1)%len(corpus)].Data); err != nil {
			return err
		}
		if _, err := wh.IndexCorpusOn(fleet, nil); err != nil {
			return err
		}
	}
	_, err := wh.CompactNow(in)
	return err
}

// smokeScrape fetches /metrics over HTTP once (starting an ephemeral
// listener when none is serving), verifies the payload parses as
// Prometheus text format, and checks that the index store's arena metrics
// all report something after smokeWrites, and the query path's node counters
// after the query: a stage that reports zero is a bug.
func smokeScrape(serving string, wh *core.Warehouse) error {
	if serving == "" {
		var err error
		serving, err = serveMetrics("127.0.0.1:0", wh)
		if err != nil {
			return err
		}
	}
	resp, err := http.Get("http://" + serving + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("unexpected status %s", resp.Status)
	}
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("exporter returned no samples")
	}
	arena := map[string]float64{
		"xwh_kv_arena_live_bytes": 0, "xwh_kv_arena_dead_bytes": 0,
		"xwh_kv_arena_chunks": 0, "xwh_kv_arena_rewrites_total": 0,
	}
	for _, sm := range samples {
		if _, ok := arena[sm.Name]; ok {
			arena[sm.Name] = sm.Value
		}
	}
	for name, v := range arena {
		if v <= 0 {
			return fmt.Errorf("%s = %v after a write walk, want > 0 (%v)", name, v, arena)
		}
	}
	// The query before the scrape parsed its candidate documents under its
	// projection: it counted every node and built the ones it reads.
	var scanned, built float64
	for _, sm := range samples {
		switch sm.Name {
		case "xwh_xmltree_nodes_scanned_total":
			scanned = sm.Value
		case "xwh_xmltree_nodes_built_total":
			built = sm.Value
		}
	}
	if built <= 0 || built >= scanned {
		return fmt.Errorf("xmltree.nodes: %v built of %v scanned after a query, want 0 < built < scanned", built, scanned)
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		pr, err := http.Get("http://" + serving + probe)
		if err != nil {
			return err
		}
		pr.Body.Close()
		if pr.StatusCode != http.StatusOK {
			return fmt.Errorf("%s answered %s", probe, pr.Status)
		}
	}
	fmt.Printf("obs-smoke: scraped and parsed %d samples from http://%s/metrics; /healthz and /readyz ok\n",
		len(samples), serving)
	fmt.Printf("obs-smoke: index store arena after the write walk: %.0f live and %.0f dead bytes in %.0f chunks, %.0f rewrites\n",
		arena["xwh_kv_arena_live_bytes"], arena["xwh_kv_arena_dead_bytes"],
		arena["xwh_kv_arena_chunks"], arena["xwh_kv_arena_rewrites_total"])
	fmt.Printf("obs-smoke: the query path built %.0f of the %.0f nodes it scanned\n", built, scanned)
	return nil
}
