// Package repro reproduces "Web Data Indexing in the Cloud: Efficiency and
// Cost Reductions" (Camacho-Rodríguez, Colazzo, Manolescu, EDBT 2013) as a
// Go library: an XML warehouse over simulated commercial-cloud services
// (file store, key-value store, virtual instances, queues), the four
// indexing strategies LU / LUP / LUI / 2LUPI with their look-up algorithms,
// the paper's monetary cost model, and a benchmark harness that regenerates
// every table and figure of the paper's evaluation.
//
// The warehouse itself is internal/core: Figure 1's pipeline with every
// step written once, run live by queue-polling workers (and served over HTTP
// by internal/serve) or inline by deterministic drivers.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record. The top-level
// bench_test.go exposes one Go benchmark per paper table/figure; the same
// experiments print paper-style tables via cmd/benchall. The served daemon
// and the bulk build are measured by the gateable benchmark in benchmark/
// (BENCHMARK.json), which CI holds to a checked-in reference.
package repro
