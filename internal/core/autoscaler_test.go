package core

import (
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/index"
	"repro/internal/xmark"
)

func TestAutoScalerGrowsAndShrinksWithBacklog(t *testing.T) {
	w := newWarehouse(t, index.LU)
	scaler := w.StartAutoScaler(AutoScalerConfig{
		Module:           IndexerModule,
		Min:              1,
		Max:              4,
		BacklogPerWorker: 3,
		Interval:         10 * time.Millisecond,
		Worker: WorkerOptions{
			Poll:      5 * time.Millisecond,
			WorkDelay: 15 * time.Millisecond, // keep a backlog visible
		},
	})
	defer scaler.Stop()
	if got := scaler.Workers(); got != 1 {
		t.Fatalf("initial workers = %d, want Min=1", got)
	}

	// Flood the loader queue: 13 paintings + generated docs.
	docs := xmark.Paintings()
	cfg := xmark.DefaultConfig(30)
	cfg.TargetDocBytes = 2 << 10
	for i := 0; i < cfg.Docs; i++ {
		docs = append(docs, xmark.GenerateDoc(cfg, i))
	}
	for _, d := range docs {
		if err := w.SubmitDocument(d.URI, d.Data); err != nil {
			t.Fatal(err)
		}
	}

	// The scaler must grow toward Max while the backlog lasts...
	deadline := time.Now().Add(10 * time.Second)
	for scaler.Peak() < 4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if scaler.Peak() < 2 {
		t.Fatalf("scaler never grew: peak = %d", scaler.Peak())
	}

	// ...drain the queue...
	for w.queues.Len(LoaderQueue) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := w.queues.Len(LoaderQueue); got != 0 {
		t.Fatalf("queue not drained: %d left", got)
	}

	// ...and shrink back to Min once idle.
	for scaler.Workers() > 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := scaler.Workers(); got != 1 {
		t.Errorf("workers after drain = %d, want 1", got)
	}
	if got := scaler.Processed(); got != len(docs) {
		t.Errorf("processed = %d, want %d", got, len(docs))
	}
}

func TestAutoScalerQueryModule(t *testing.T) {
	w := newWarehouse(t, index.LUP)
	fleet := ec2.LaunchFleet(w.ledger, ec2.Large, 1)
	loadPaintings(t, w, fleet)

	scaler := w.StartAutoScaler(AutoScalerConfig{
		Module:           QueryProcessorModule,
		Min:              1,
		Max:              3,
		BacklogPerWorker: 2,
		Interval:         10 * time.Millisecond,
		Worker:           WorkerOptions{Poll: 5 * time.Millisecond},
	})
	defer scaler.Stop()

	fe := NewFrontend(w)
	defer fe.Close()
	var outcomes []<-chan *QueryOutcome
	for i := 0; i < 8; i++ {
		_, ch, err := fe.Submit(`//painting[/name{val}]`, true)
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, ch)
	}
	for _, ch := range outcomes {
		out := awaitOutcome(t, ch, 15*time.Second)
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if len(out.Result.Rows) != 9 {
			t.Errorf("rows = %d, want 9", len(out.Result.Rows))
		}
	}
}

func TestAutoScalerDefaults(t *testing.T) {
	cfg := AutoScalerConfig{}.withDefaults()
	if cfg.Min != 1 || cfg.Max != 1 || cfg.BacklogPerWorker != 4 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.InstanceType.Name != "l" {
		t.Errorf("default instance type = %q", cfg.InstanceType.Name)
	}
	cfg = AutoScalerConfig{Min: 2, Max: 1}.withDefaults()
	if cfg.Max != 2 {
		t.Errorf("Max not raised to Min: %+v", cfg)
	}
}

func TestAutoScalerStopTerminatesInstances(t *testing.T) {
	w := newWarehouse(t, index.LU)
	scaler := w.StartAutoScaler(AutoScalerConfig{
		Module:   IndexerModule,
		Min:      2,
		Max:      2,
		Interval: 10 * time.Millisecond,
	})
	if got := scaler.Workers(); got != 2 {
		t.Fatalf("workers = %d", got)
	}
	scaler.Stop()
	if got := scaler.Workers(); got != 0 {
		t.Errorf("workers after Stop = %d", got)
	}
}
