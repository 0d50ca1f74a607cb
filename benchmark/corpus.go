package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/engine"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// scale is the corpus size. defaultScale re-declares the 400 x 16 KB the
// repository's own experiments call "default"; the unit tests use a tiny one.
type scale struct {
	Docs     int
	DocBytes int
}

var defaultScale = scale{Docs: 400, DocBytes: 16 << 10}

// doc is one document as the warehouse receives it.
type doc struct {
	URI  string
	Data []byte
}

// corpusSeed is the XMark generator seed of every run. The documents are the
// same whatever --seed is: how many of them match each query decides the work
// of a request, and a benchmark whose work changed by a tenth from seed to
// seed could not hold a metric to a bound of a hundredth. --seed decides the
// order of the requests (loadgen.go).
const corpusSeed = 42

// genCorpus generates the XMark corpus.
func genCorpus(sc scale) []doc {
	cfg := xmark.DefaultConfig(sc.Docs)
	cfg.Seed = corpusSeed
	cfg.TargetDocBytes = sc.DocBytes
	docs := make([]doc, sc.Docs)
	for i := range docs {
		d := xmark.GenerateDoc(cfg, i)
		docs[i] = doc{URI: d.URI, Data: d.Data}
	}
	return docs
}

func corpusBytes(docs []doc) int64 {
	var n int64
	for _, d := range docs {
		n += int64(len(d.Data))
	}
	return n
}

func parseCorpus(docs []doc) ([]*xmltree.Document, error) {
	parsed := make([]*xmltree.Document, len(docs))
	for i, d := range docs {
		p, err := xmltree.Parse(d.URI, d.Data)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", d.URI, err)
		}
		parsed[i] = p
	}
	return parsed, nil
}

// answer identifies a query result independently of row order: the row count
// plus the sum of the rows' hashes.
type answer struct {
	Rows   int
	Digest uint64
}

func (a *answer) addRow(uri string, cols []string) {
	h := fnv.New64a()
	h.Write([]byte(uri))
	for _, c := range cols {
		h.Write([]byte{0})
		h.Write([]byte(c))
	}
	a.Rows++
	a.Digest += h.Sum64()
}

func answerOf(r *engine.Result) answer {
	var a answer
	for _, row := range r.Rows {
		a.addRow(row.URI, row.Cols)
	}
	return a
}

// groundTruth evaluates every query over the whole parsed corpus without any
// index: the reference every served answer is compared with.
func groundTruth(queries []workload.Query, parsed []*xmltree.Document) (map[string]answer, error) {
	truth := make(map[string]answer, len(queries))
	for _, q := range queries {
		res, err := engine.EvalQueryOnDocs(q.Parse(), parsed)
		if err != nil {
			return nil, fmt.Errorf("ground truth of %s: %w", q.Name, err)
		}
		truth[q.Name] = answerOf(res)
	}
	return truth, nil
}

// distinctURIs counts the documents that contributed at least one row (a
// joined row names its documents joined with "+").
func distinctURIs(r *engine.Result) int {
	seen := make(map[string]bool)
	for _, row := range r.Rows {
		for _, u := range strings.Split(row.URI, "+") {
			seen[u] = true
		}
	}
	return len(seen)
}

// stampRevision returns the document with a revision note inserted as the
// first child of its root element, so that every update changes the content
// and therefore the index.
func stampRevision(data []byte, rev int) []byte {
	i := bytes.IndexByte(data, '>')
	if i < 0 {
		return data
	}
	note := fmt.Sprintf("<note>rev%d</note>", rev)
	out := make([]byte, 0, len(data)+len(note))
	out = append(out, data[:i+1]...)
	out = append(out, note...)
	return append(out, data[i+1:]...)
}
