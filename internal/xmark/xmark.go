// Package xmark generates the experimental corpus of the paper: a
// collection of XMark-like auction documents (Section 8.1).
//
// The paper generated 20,000 documents (40 GB) with the XMark generator's
// split option, then modified them in two ways to introduce heterogeneity
// so that index selectivity differences would show:
//
//   - a fraction of the documents had their path structure altered while
//     preserving the labels (so label-only lookups — LU — return them but
//     path lookups — LUP — do not);
//   - another fraction was made "more" heterogeneous by rendering more
//     elements optional children of their parents (so path lookups may
//     return documents in which no single tree-pattern embedding exists,
//     which only the structural-identifier strategies — LUI/2LUPI — filter
//     out).
//
// This generator reproduces that corpus shape at any scale. Generation is
// deterministic: document i of a given Config is always byte-identical,
// which lets multiple simulated instances generate slices of the corpus
// independently and keeps every experiment reproducible.
//
// The split XMark corpus consists of single-entity fragments. Document
// kinds cycle deterministically through item, person, open-auction,
// closed-auction and category fragments in the proportions of the XMark
// schema. Cross-references (person..., item..., category... identifiers)
// are drawn from shared ID spaces so that value-join queries have matches
// across documents.
package xmark

import (
	"bytes"
	"fmt"
	"math/rand"
)

// Class describes the structural family of a document.
type Class uint8

const (
	// Standard documents follow the regular XMark layout.
	Standard Class = iota
	// Altered documents preserve labels but change the path structure
	// (e.g. an item's name is wrapped inside an extra info element).
	Altered
	// Heterogeneous documents drop elements that are compulsory in XMark
	// and may split features across sibling entities.
	Heterogeneous
)

func (c Class) String() string {
	switch c {
	case Standard:
		return "standard"
	case Altered:
		return "altered"
	case Heterogeneous:
		return "heterogeneous"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Kind is the entity family a split document belongs to.
type Kind uint8

const (
	ItemDoc Kind = iota
	PersonDoc
	OpenAuctionDoc
	ClosedAuctionDoc
	CategoryDoc
)

func (k Kind) String() string {
	switch k {
	case ItemDoc:
		return "item"
	case PersonDoc:
		return "person"
	case OpenAuctionDoc:
		return "open_auction"
	case ClosedAuctionDoc:
		return "closed_auction"
	case CategoryDoc:
		return "category"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// kindCycle fixes the document-kind mix: 40% items, 20% persons, 20% open
// auctions, 15% closed auctions, 5% categories.
var kindCycle = [20]Kind{
	ItemDoc, PersonDoc, ItemDoc, OpenAuctionDoc, ItemDoc,
	ClosedAuctionDoc, PersonDoc, ItemDoc, OpenAuctionDoc, ItemDoc,
	ClosedAuctionDoc, PersonDoc, ItemDoc, OpenAuctionDoc, CategoryDoc,
	ItemDoc, ClosedAuctionDoc, PersonDoc, OpenAuctionDoc, ItemDoc,
}

// Config parameterizes a corpus.
type Config struct {
	// Seed makes the corpus reproducible.
	Seed int64
	// Docs is the number of documents (the paper used 20,000).
	Docs int
	// TargetDocBytes is the approximate serialized size of one document
	// (the paper's documents average 2 MB). Actual sizes vary around it.
	TargetDocBytes int
	// AlteredFraction and HeterogeneousFraction give the share of
	// documents in the two modified classes. Defaults: 0.20 and 0.25.
	AlteredFraction       float64
	HeterogeneousFraction float64
}

// DefaultConfig returns the corpus configuration used by the experiments at
// 1/1000 of the paper's scale: 20 documents of roughly 2 MB per simulated
// "GB-unit"; callers scale Docs up or down.
func DefaultConfig(docs int) Config {
	return Config{
		Seed:                  42,
		Docs:                  docs,
		TargetDocBytes:        64 << 10,
		AlteredFraction:       0.20,
		HeterogeneousFraction: 0.25,
	}
}

func (c Config) withDefaults() Config {
	if c.TargetDocBytes == 0 {
		c.TargetDocBytes = 64 << 10
	}
	if c.AlteredFraction == 0 && c.HeterogeneousFraction == 0 {
		c.AlteredFraction = 0.20
		c.HeterogeneousFraction = 0.25
	}
	return c
}

// Doc is one generated document.
type Doc struct {
	URI   string
	Data  []byte
	Kind  Kind
	Class Class
}

// URIOf returns the URI of document i, without generating it.
func URIOf(i int) string { return fmt.Sprintf("xmark-%06d.xml", i) }

// KindOf returns the kind of document i under any Config.
func KindOf(i int) Kind { return kindCycle[i%len(kindCycle)] }

// ClassOf returns the structural class of document i under cfg.
func ClassOf(cfg Config, i int) Class {
	cfg = cfg.withDefaults()
	// Classes are spread deterministically and independently of kind by
	// hashing the index.
	u := float64(splitmix(uint64(cfg.Seed)^(uint64(i)*0x9e3779b97f4a7c15))%1_000_000) / 1_000_000
	switch {
	case u < cfg.AlteredFraction:
		return Altered
	case u < cfg.AlteredFraction+cfg.HeterogeneousFraction:
		return Heterogeneous
	default:
		return Standard
	}
}

// GenerateDoc produces document i of the corpus described by cfg.
func GenerateDoc(cfg Config, i int) Doc {
	cfg = cfg.withDefaults()
	g := &gen{
		cfg:   cfg,
		i:     i,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ int64(splitmix(uint64(i)+0xabcdef)))),
		kind:  KindOf(i),
		class: ClassOf(cfg, i),
	}
	g.buf.Grow(cfg.TargetDocBytes + 1024)
	g.emit()
	return Doc{URI: URIOf(i), Data: append([]byte(nil), g.buf.Bytes()...), Kind: g.kind, Class: g.class}
}

// Generate materializes the whole corpus. For large corpora prefer
// GenerateDoc in a streaming loop.
func Generate(cfg Config) []Doc {
	cfg = cfg.withDefaults()
	docs := make([]Doc, cfg.Docs)
	for i := range docs {
		docs[i] = GenerateDoc(cfg, i)
	}
	return docs
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// gen carries the state of one document's generation.
type gen struct {
	cfg   Config
	i     int
	rng   *rand.Rand
	kind  Kind
	class Class
	buf   bytes.Buffer
}

func (g *gen) emit() {
	g.open("site")
	switch g.kind {
	case ItemDoc:
		g.open("regions")
		g.open(g.region())
		for _, e := range g.planEntities(itemBaseBytes) {
			g.item(e)
		}
		g.close(g.region())
		g.close("regions")
	case PersonDoc:
		g.open("people")
		for _, e := range g.planEntities(personBaseBytes) {
			g.person(e)
		}
		g.close("people")
	case OpenAuctionDoc:
		g.open("open_auctions")
		for _, e := range g.planEntities(auctionBaseBytes) {
			g.openAuction(e)
		}
		g.close("open_auctions")
	case ClosedAuctionDoc:
		g.open("closed_auctions")
		for _, e := range g.planEntities(auctionBaseBytes) {
			g.closedAuction(e)
		}
		g.close("closed_auctions")
	case CategoryDoc:
		g.open("categories")
		for _, e := range g.planEntities(categoryBaseBytes) {
			g.category(e)
		}
		g.close("categories")
	}
	g.close("site")
}

// planEntities decides how many entities the document holds and which
// global ordinal each carries, so that entity IDs are unique corpus-wide.
func (g *gen) planEntities(baseBytes int) []int {
	n := g.cfg.TargetDocBytes / baseBytes
	if n < 1 {
		n = 1
	}
	// Heterogeneous documents get more, smaller entities, so that features
	// split across siblings (an LUP false-positive source).
	if g.class == Heterogeneous {
		n++
	}
	ords := make([]int, n)
	for j := range ords {
		ords[j] = g.i*maxEntitiesPerDoc + j
	}
	return ords
}

// maxEntitiesPerDoc bounds the entities of one document for the purpose of
// deriving unique global ordinals.
const maxEntitiesPerDoc = 1 << 12

// region picks a deterministic region name for an item document.
func (g *gen) region() string {
	regions := [...]string{"africa", "asia", "australia", "europe", "namerica", "samerica"}
	return regions[g.i%len(regions)]
}

// Approximate serialized sizes used to plan entity counts.
const (
	itemBaseBytes     = 1500
	personBaseBytes   = 900
	auctionBaseBytes  = 1100
	categoryBaseBytes = 700
)

// --- low-level writers -----------------------------------------------------

func (g *gen) open(label string, attrs ...string) {
	g.buf.WriteByte('<')
	g.buf.WriteString(label)
	for i := 0; i+1 < len(attrs); i += 2 {
		g.buf.WriteByte(' ')
		g.buf.WriteString(attrs[i])
		g.buf.WriteString(`="`)
		g.buf.WriteString(attrs[i+1])
		g.buf.WriteString(`"`)
	}
	g.buf.WriteByte('>')
}

func (g *gen) close(label string) {
	g.buf.WriteString("</")
	g.buf.WriteString(label)
	g.buf.WriteByte('>')
}

func (g *gen) leaf(label, text string) {
	g.open(label)
	g.buf.WriteString(text)
	g.close(label)
}

func (g *gen) empty(label string, attrs ...string) {
	g.buf.WriteByte('<')
	g.buf.WriteString(label)
	for i := 0; i+1 < len(attrs); i += 2 {
		g.buf.WriteByte(' ')
		g.buf.WriteString(attrs[i])
		g.buf.WriteString(`="`)
		g.buf.WriteString(attrs[i+1])
		g.buf.WriteString(`"`)
	}
	g.buf.WriteString("/>")
}
