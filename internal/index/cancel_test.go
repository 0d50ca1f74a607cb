package index

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/meter"
	"repro/internal/pattern"
	"repro/internal/xmark"
)

// A look-up whose context is cancelled stops with context.Canceled under
// every strategy, and the store bills no get after the cancel.
func TestLookupStopsOnCancel(t *testing.T) {
	q := pattern.MustParse(`//painting[/name]`).Patterns[0]
	for _, s := range All() {
		ledger := meter.NewLedger()
		store := dynamodb.New(ledger)
		if err := CreateTables(store, s); err != nil {
			t.Fatal(err)
		}
		loadCorpus(t, store, s, xmark.Paintings()[:2])
		gets := func() int64 { return ledger.Snapshot().Get(dynamodb.Backend, "get").Calls }

		ctx, cancel := context.WithCancel(context.Background())
		if _, _, err := LookupPattern(store, s, q, LookupOptions{Ctx: ctx}); err != nil {
			t.Fatalf("%v: live look-up: %v", s, err)
		}
		if gets() == 0 {
			t.Fatalf("%v: the live look-up billed no get", s)
		}
		cancel()
		before := gets()
		_, _, err := LookupPattern(store, s, q, LookupOptions{Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", s, err)
		}
		if after := gets(); after != before {
			t.Errorf("%v: %d gets billed after the cancel", s, after-before)
		}
	}
}
