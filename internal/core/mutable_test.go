package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cloud/ec2"
	"repro/internal/engine"
	"repro/internal/index"
)

// An update whose content does not parse is rejected before it touches the
// file store: the manifest keeps pointing at the last good file, so every
// later query answers exactly as before the attempt.
func TestRejectedUpdateKeepsDocument(t *testing.T) {
	w, err := New(Config{Strategy: index.TwoLUPI, MutableCorpus: true})
	if err != nil {
		t.Fatal(err)
	}
	loadPaintings(t, w, ec2.LaunchFleet(w.ledger, ec2.Large, 1))
	in := ec2.Launch(w.ledger, ec2.Large)
	const q = `//painting[/name{val}]`
	before, _, err := w.RunQueryOn(in, q, true)
	if err != nil {
		t.Fatal(err)
	}

	if err := w.UpdateDocument(in, "delacroix.xml", []byte("<painting><name>broken")); err == nil {
		t.Fatal("an update that does not parse was accepted")
	}
	after, _, err := w.RunQueryOn(in, q, true)
	if err != nil {
		t.Fatalf("query after a rejected update: %v", err)
	}
	if got, want := fmt.Sprint(renderRows(after)), fmt.Sprint(renderRows(before)); got != want {
		t.Errorf("rows after a rejected update:\n got %s\nwant %s", got, want)
	}
}

func renderRows(res *engine.Result) []string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprintf("%s|%v", r.URI, r.Cols)
	}
	sort.Strings(rows)
	return rows
}
