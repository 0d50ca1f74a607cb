package xmltree

import (
	"testing"

	"repro/internal/xmark"
)

// FuzzParseDifferential holds the scanner to the encoding/xml oracle under
// the contract of the package doc: same tree where the oracle accepts, a
// rejection where it rejects, but for the listed leniencies. Its second arm
// holds ParseProjected to Parse: under every projection tried, the same
// verdict with the same error text, and the nodes of the full tree. The seeds are
// the edge table, the leniencies, two generated documents and the files of
// testdata/fuzz/FuzzParseDifferential.
func FuzzParseDifferential(f *testing.F) {
	for _, tc := range edgeInputs {
		f.Add([]byte(tc.src))
	}
	for _, tc := range leniencies {
		f.Add([]byte(tc.src))
	}
	cfg := xmark.DefaultConfig(2)
	cfg.TargetDocBytes = 1 << 10
	for _, gd := range xmark.Generate(cfg) {
		f.Add(gd.Data)
	}
	f.Add(xmark.Paintings()[0].Data)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
		checkProjections(t, data)
	})
}
