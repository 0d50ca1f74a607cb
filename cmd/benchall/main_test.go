package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// TestGoldenTiny holds every table and figure benchall prints at -scale tiny
// to the checked-in golden, byte for byte: a change that moves a modeled
// time, a billed request or an index byte anywhere in the paper's
// evaluation shows up here as the lines it moved. `make papergate` does the
// same at the default scale. With -update the test rewrites both goldens
// instead of comparing.
func TestGoldenTiny(t *testing.T) {
	scales := []string{"tiny"}
	if *update {
		scales = append(scales, "default")
	}
	for _, scale := range scales {
		var out bytes.Buffer
		if err := run(&out, []string{"-scale", scale}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", scale+".golden")
		if *update {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("benchall -scale %s differs from %s (rerun with -update if the move is intended):\n%s",
				scale, path, firstDiff(want, out.Bytes()))
		}
	}
}

// The paper section of EXPERIMENTS.md shows the default golden: between
// these two marker lines it holds testdata/default.golden verbatim in one
// fenced block.
const (
	experimentsPath = "../../EXPERIMENTS.md"
	goldenBegin     = "<!-- begin cmd/benchall/testdata/default.golden -->\n"
	goldenEnd       = "<!-- end cmd/benchall/testdata/default.golden -->\n"
)

// TestExperimentsShowsDefaultGolden requires EXPERIMENTS.md's measured
// paper tables to be the default golden byte for byte. With -update it
// rewrites the block from the golden instead, after TestGoldenTiny has
// rewritten the golden, so one command moves a number in both.
func TestExperimentsShowsDefaultGolden(t *testing.T) {
	doc, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "default.golden"))
	if err != nil {
		t.Fatal(err)
	}
	begin := bytes.Index(doc, []byte(goldenBegin))
	end := bytes.Index(doc, []byte(goldenEnd))
	if begin < 0 || end < begin || (begin > 0 && doc[begin-1] != '\n') || doc[end-1] != '\n' {
		t.Fatalf("%s has no block from a line %q to a later line %q", experimentsPath, goldenBegin, goldenEnd)
	}
	begin += len(goldenBegin)
	want := append(append([]byte("```text\n"), golden...), "```\n"...)
	if *update {
		out := append(append(append([]byte(nil), doc[:begin]...), want...), doc[end:]...)
		if err := os.WriteFile(experimentsPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := doc[begin:end]; !bytes.Equal(got, want) {
		t.Errorf("EXPERIMENTS.md's golden block differs from testdata/default.golden (rerun with -update to copy it):\n%s",
			firstDiff(want, got))
	}
}

// firstDiff returns the first line where got departs from want, with its
// line number.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, w, g)
		}
	}
	return ""
}
