package bench

import (
	"testing"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/workload"
)

// benchQuery measures one query's end-to-end processing (RunQueryOn) on a
// prebuilt warehouse; trace toggles the span journal, so the pair of
// benchmarks below bounds the observability overhead.
func benchQuery(b *testing.B, trace bool) {
	c, err := NewCorpus(Tiny())
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Strategy: index.LUP, Trace: trace}
	w, _, fleet, err := BuildWarehouseCfg(c, cfg, 2, ec2.Large)
	if err != nil {
		b.Fatal(err)
	}
	in := fleet[0]
	q := workload.XMark()[0].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.RunQueryOn(in, q, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcessQuery is the untraced baseline (registry metrics still
// on, as in production use).
func BenchmarkProcessQuery(b *testing.B) { benchQuery(b, false) }

// BenchmarkProcessQueryObs runs the same query with the span journal
// enabled; compare against BenchmarkProcessQuery for the tracing overhead.
func BenchmarkProcessQueryObs(b *testing.B) { benchQuery(b, true) }
