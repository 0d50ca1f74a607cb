// Quickstart: the smallest end-to-end tour of the warehouse.
//
// It provisions the simulated cloud (S3 + DynamoDB + SQS), submits the
// paper's example documents through the front end, indexes them under the
// LUP strategy on two large EC2 instances, runs one query, and prints the
// results together with what the session would have cost on AWS
// (Singapore, October 2012 prices — Table 3 of the paper).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/pricing"
	"repro/internal/xmark"
)

func main() {
	// A warehouse = file store + index store + queues, wired per Figure 1.
	wh, err := core.New(core.Config{Strategy: index.LUP})
	if err != nil {
		log.Fatal(err)
	}

	// Front end, steps 1-3: store each document, enqueue a loading request.
	for _, doc := range xmark.Paintings() {
		if err := wh.SubmitDocument(doc.URI, doc.Data); err != nil {
			log.Fatal(err)
		}
	}

	// Indexing module, steps 4-6, on two large instances.
	fleet := ec2.LaunchFleet(wh.Ledger(), ec2.Large, 2)
	report, err := wh.IndexCorpusOn(fleet, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d documents (%d index entries, %d store items) in %v modeled time\n",
		report.Docs, report.Entries, report.Items, report.Total)

	// Query processor, steps 7-18: the paper's q3 — last names of painters
	// of paintings whose name contains the word Lion.
	processor := ec2.Launch(wh.Ledger(), ec2.XL)
	const q = `//painting[/name~"Lion", /painter[/name[/last{val}]]]`
	result, stats, err := wh.RunQueryOn(processor, q, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", q)
	fmt.Printf("  looked up %d index keys, fetched %d of %d documents, answered in %v modeled time\n",
		stats.Lookup.GetOps, stats.DocsFetched, report.Docs, stats.ResponseTime)
	for _, row := range result.Rows {
		fmt.Printf("  %-20s <- %s\n", row.Cols[0], row.URI)
	}

	// What would AWS have charged for all of the above?
	bill := pricing.Singapore2012().Bill(wh.Ledger().Snapshot())
	fmt.Printf("\ncharged so far:\n%s", bill)
}
