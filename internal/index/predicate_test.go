package index

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/cloud/dynamodb"
	"repro/internal/meter"
	"repro/internal/pattern"
	"repro/internal/xmark"
)

// Differential property: filtering the corpus with DocPredicate must agree
// exactly with LookupPattern against a loaded index, for every strategy
// and a diverse query pool.
func TestDocPredicateAgreesWithStoreLookup(t *testing.T) {
	cfg := xmark.DefaultConfig(120)
	cfg.TargetDocBytes = 4 << 10
	c := buildCorpus(t, dynamodb.New(meter.NewLedger()), xmark.Generate(cfg))

	for _, qs := range lookupQueries {
		tr := pattern.MustParse(qs).Patterns[0]
		for _, s := range All() {
			viaStore, _, err := LookupPattern(c.store, s, tr)
			if err != nil {
				t.Fatal(err)
			}
			pred := DocPredicate(s, tr)
			var viaPred []string
			for _, d := range c.docs {
				if pred(CollectDocKeys(d)) {
					viaPred = append(viaPred, d.URI)
				}
			}
			sort.Strings(viaPred)
			if !reflect.DeepEqual(viaStore, viaPred) {
				t.Errorf("%s on %s:\n store %v\n pred  %v", s.Name(), qs, viaStore, viaPred)
			}
		}
	}
}

func TestDocPredicateOnPaintings(t *testing.T) {
	d := CollectDocKeys(parseDoc(t, "manet.xml", xmark.ManetXML))
	lion := pattern.MustParse(`//painting[/name~"Lion"]`).Patterns[0]
	if DocPredicate(LU, lion)(d) {
		t.Error("LU predicate matched manet.xml for the Lion query (no wLion key)")
	}
	olympia := pattern.MustParse(`//painting[/name~"Olympia"]`).Patterns[0]
	for _, s := range All() {
		if !DocPredicate(s, olympia)(d) {
			t.Errorf("%s predicate missed manet.xml for the Olympia query", s.Name())
		}
	}
	// Structure that exists label-wise but not as a twig.
	twisted := pattern.MustParse(`//painter[/painting]`).Patterns[0]
	if DocPredicate(LUI, twisted)(d) {
		t.Error("LUI predicate accepted an impossible twig")
	}
	if !DocPredicate(LU, twisted)(d) {
		t.Error("LU predicate must accept on labels alone")
	}
}
