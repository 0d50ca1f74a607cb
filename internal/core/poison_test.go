package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/xmark"
)

// A malformed document must not wedge the live pipeline: its loading
// request fails repeatedly, the redrive policy parks it in the dead-letter
// queue, and every well-formed document still gets indexed.
func TestPoisonDocumentGoesToDeadLetters(t *testing.T) {
	w := steppedWarehouse(t, Config{Strategy: index.LUP})
	clk := liveClockOf(w)
	if err := w.SubmitDocument("broken.xml", []byte("<open><mismatch></open>")); err != nil {
		t.Fatal(err)
	}
	for _, d := range xmark.Paintings()[:4] {
		if err := w.SubmitDocument(d.URI, d.Data); err != nil {
			t.Fatal(err)
		}
	}

	// Each time the worker waits, the failed delivery's lease lapses, until
	// the redrive policy takes the message.
	const lease = 20 * time.Millisecond
	wk := w.StartIndexer(ec2.Launch(w.ledger, ec2.Large), WorkerOptions{Visibility: lease})
	for steps := 0; ; steps++ {
		clk.awaitParked(1)
		if w.queues.Len(LoaderQueue) == 0 {
			break
		}
		if steps == MaxLoadAttempts {
			t.Fatalf("loader queue holds %d messages after %d lapsed leases", w.queues.Len(LoaderQueue), steps)
		}
		clk.Advance(lease)
	}
	wk.Stop()

	if got := w.queues.Len(LoaderQueue); got != 0 {
		t.Errorf("loader queue still holds %d messages", got)
	}
	if got := w.queues.Len(LoaderDeadLetters); got != 1 {
		t.Fatalf("dead-letter queue holds %d, want 1", got)
	}
	m, _, err := w.queues.Receive(context.Background(), LoaderDeadLetters, time.Minute, 0)
	if err != nil || m == nil || m.Body != "broken.xml" {
		t.Errorf("dead letter = %+v, %v", m, err)
	}
	if wk.Processed() != 4 {
		t.Errorf("processed %d documents, want 4", wk.Processed())
	}
	if w.Registry().Counter("core.worker.failures").Value() < 1 {
		t.Error("no failures recorded for the poison document")
	}

	// The index answers over the healthy documents.
	in := ec2.Launch(w.ledger, ec2.Large)
	res, _, err := w.RunQueryOn(in, `//painting[/name{val}]`, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no results over the healthy documents")
	}
}
