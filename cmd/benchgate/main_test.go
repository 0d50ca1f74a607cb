package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func writeResult(t *testing.T, dir, workload string, seconds int, modeled, size, billed, ok float64) {
	t.Helper()
	body := fmt.Sprintf(`{"workload":%q,"seed":42,"seconds":%d,"metrics":{
		"modeled_ms_per_op":{"value":%v,"unit":"model_ms"},"index_bytes_per_corpus_byte":{"value":%v,"unit":"ratio"},
		"billed_requests_per_op":{"value":%v,"unit":"count"},
		"ok_ops_share":{"value":%v,"unit":"ratio"},"ops_per_s":{"value":123.4,"unit":"1/s"}}}`, workload, seconds, modeled, size, billed, ok)
	if err := os.WriteFile(filepath.Join(dir, "result-"+workload+".json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// The gate passes on the results its reference was written from and on
// nothing else: a moved metric, a failed op, another run length and a
// workload that was not run all fail it; a clocked metric does not, nor does
// a metric the reference does not list under that workload.
func TestGate(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "reference.json")
	// The reference names what is gated where; -update fills in the values.
	names := `{"workloads":{
		"serve-selective":{"modeled_ms_per_op":0,"index_bytes_per_corpus_byte":0,"billed_requests_per_op":0},
		"serve-scan":{"modeled_ms_per_op":0,"index_bytes_per_corpus_byte":0}}}`
	if err := os.WriteFile(ref, []byte(names), 0o644); err != nil {
		t.Fatal(err)
	}
	writeResult(t, dir, "serve-selective", 5, 48.462925, 8.618, 13.6, 1)
	writeResult(t, dir, "serve-scan", 5, 783.03768, 8.618, 127.25, 1)
	if err := run(ref, dir, true); err != nil {
		t.Fatal(err)
	}
	if err := run(ref, dir, false); err != nil {
		t.Fatalf("the gate fails on the results its reference is from: %v", err)
	}
	for name, spoil := range map[string]func(){
		"modeled time moved": func() { writeResult(t, dir, "serve-selective", 5, 48.462926, 8.618, 13.6, 1) },
		"index size moved":   func() { writeResult(t, dir, "serve-selective", 5, 48.462925, 8.619, 13.6, 1) },
		"bill moved":         func() { writeResult(t, dir, "serve-selective", 5, 48.462925, 8.618, 13.61, 1) },
		"an op failed":       func() { writeResult(t, dir, "serve-selective", 5, 48.462925, 8.618, 13.6, 0.995) },
		"another run length": func() { writeResult(t, dir, "serve-selective", 15, 48.462925, 8.618, 13.6, 1) },
		"workload not run":   func() { os.Remove(filepath.Join(dir, "result-serve-selective.json")) },
	} {
		spoil()
		if err := run(ref, dir, false); err == nil {
			t.Errorf("%s: the gate passes", name)
		}
		writeResult(t, dir, "serve-selective", 5, 48.462925, 8.618, 13.6, 1)
		if err := run(ref, dir, false); err != nil {
			t.Fatalf("after %s was put right: %v", name, err)
		}
	}
	writeResult(t, dir, "serve-scan", 5, 783.03768, 8.618, 127.26, 1)
	if err := run(ref, dir, false); err != nil {
		t.Errorf("the bill is not listed under serve-scan, and the gate holds it: %v", err)
	}
}
