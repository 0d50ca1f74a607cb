package xmltree

import (
	"testing"

	"repro/internal/xmark"
)

// benchDocs is the benchmark's document shape (benchmark/corpus.go): XMark
// seed 42 at a 16 KB target, one cycle of the generator's kind mix.
func benchDocs() []xmark.Doc {
	cfg := xmark.DefaultConfig(20)
	cfg.TargetDocBytes = 16 << 10
	return xmark.Generate(cfg)
}

var benchSink *Document

func benchParse(b *testing.B, parse func(string, []byte) (*Document, error)) {
	docs := benchDocs()
	var total int64
	for _, d := range docs {
		total += int64(len(d.Data))
	}
	b.SetBytes(total / int64(len(docs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := docs[i%len(docs)]
		doc, err := parse(d.URI, d.Data)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = doc
	}
}

// BenchmarkParse measures the scanner; one op is one document, so MB/s is
// xmltree.parse_mb_per_s of the gateable benchmark and allocs/op is per
// document.
func BenchmarkParse(b *testing.B) { benchParse(b, Parse) }

// BenchmarkParseReference is the encoding/xml oracle on the same documents,
// the baseline of the >= 4x MB/s and <= 1/4 allocs/op claims.
func BenchmarkParseReference(b *testing.B) { benchParse(b, parseReference) }
