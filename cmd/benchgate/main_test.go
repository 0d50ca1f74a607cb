package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func writeResult(t *testing.T, dir, workload string, seconds int, modeled, size, ok float64) {
	t.Helper()
	body := fmt.Sprintf(`{"workload":%q,"seed":42,"seconds":%d,"metrics":{
		"modeled_ms_per_op":{"value":%v,"unit":"model_ms"},"index_bytes_per_corpus_byte":{"value":%v,"unit":"ratio"},
		"ok_ops_share":{"value":%v,"unit":"ratio"},"ops_per_s":{"value":123.4,"unit":"1/s"}}}`, workload, seconds, modeled, size, ok)
	if err := os.WriteFile(filepath.Join(dir, "result-"+workload+".json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// The gate passes on the results its reference was written from and on
// nothing else: a moved metric, a failed op, another run length and a
// workload that was not run all fail it; a clocked metric does not.
func TestGate(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "reference.json")
	writeResult(t, dir, "serve-scan", 5, 783.03768, 8.618, 1)
	writeResult(t, dir, "index-build", 5, 19.14, 8.618, 1)
	if err := run(ref, dir, true); err != nil {
		t.Fatal(err)
	}
	if err := run(ref, dir, false); err != nil {
		t.Fatalf("the gate fails on the results its reference is from: %v", err)
	}
	for name, spoil := range map[string]func(){
		"modeled time moved": func() { writeResult(t, dir, "serve-scan", 5, 783.03769, 8.618, 1) },
		"index size moved":   func() { writeResult(t, dir, "serve-scan", 5, 783.03768, 8.619, 1) },
		"an op failed":       func() { writeResult(t, dir, "serve-scan", 5, 783.03768, 8.618, 0.995) },
		"another run length": func() { writeResult(t, dir, "serve-scan", 15, 783.03768, 8.618, 1) },
		"workload not run":   func() { os.Remove(filepath.Join(dir, "result-serve-scan.json")) },
	} {
		spoil()
		if err := run(ref, dir, false); err == nil {
			t.Errorf("%s: the gate passes", name)
		}
		writeResult(t, dir, "serve-scan", 5, 783.03768, 8.618, 1)
		if err := run(ref, dir, false); err != nil {
			t.Fatalf("after %s was put right: %v", name, err)
		}
	}
}
