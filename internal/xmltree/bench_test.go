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

// scanProjections are what the queries of the gateable benchmark's
// serve-scan workload read (workload.XMark q6, q7, q9, q10, as
// engine.ProjectionOf derives it; neither package can be imported here).
var scanProjections = []*Projection{
	{Elements: map[string]Keep{"open_auction": KeepNode, "bidder": KeepNode, "increase": KeepNode | KeepText,
		"personref": KeepNode, "initial": KeepNode | KeepText, "itemref": KeepNode}},
	{Elements: map[string]Keep{"open_auction": KeepNode, "bidder": KeepNode, "increase": KeepNode,
		"interval": KeepNode, "start": KeepNode | KeepText, "end": KeepNode, "type": KeepNode}},
	{Elements: map[string]Keep{"open_auction": KeepNode, "seller": KeepNode, "initial": KeepNode | KeepText,
		"bidder": KeepNode, "increase": KeepNode, "person": KeepNode, "address": KeepNode, "city": KeepNode | KeepText},
		Attributes: map[string]bool{"person": true, "id": true}},
	{Elements: map[string]Keep{"category": KeepNode, "name": KeepNode | KeepText, "item": KeepNode,
		"incategory": KeepNode, "location": KeepNode | KeepText},
		Attributes: map[string]bool{"id": true, "category": true}},
}

// BenchmarkParse measures the scanner; one op is one document, so MB/s of
// full is xmltree.parse_mb_per_s of the gateable benchmark and allocs/op is
// per document. projected is the same scan building only what a serve-scan
// query reads, which is the parse of the query path.
func BenchmarkParse(b *testing.B) {
	b.Run("full", func(b *testing.B) { benchParse(b, Parse) })
	b.Run("projected", func(b *testing.B) {
		i := 0
		benchParse(b, func(uri string, data []byte) (*Document, error) {
			i++
			return ParseProjected(uri, data, scanProjections[i%len(scanProjections)])
		})
	})
}

// BenchmarkParseReference is the encoding/xml oracle on the same documents,
// the baseline of the >= 4x MB/s and <= 1/4 allocs/op claims.
func BenchmarkParseReference(b *testing.B) { benchParse(b, parseReference) }
