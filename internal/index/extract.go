package index

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/xmltree"
)

// Strategy enumerates the paper's indexing strategies (Table 2).
type Strategy uint8

const (
	// LU associates key(n) -> (URI(d), ε).
	LU Strategy = iota
	// LUP associates key(n) -> (URI(d), {inPath_1(n) ... inPath_y(n)}).
	LUP
	// LUI associates key(n) -> (URI(d), id_1(n)‖...‖id_z(n)), identifiers
	// sorted by pre.
	LUI
	// TwoLUPI ("2LUPI") materializes both the LUP and the LUI indexes.
	TwoLUPI
)

// All returns the strategies in the order the paper's tables list them.
func All() []Strategy { return []Strategy{LU, LUP, LUI, TwoLUPI} }

// Name returns the paper's name for the strategy.
func (s Strategy) Name() string {
	switch s {
	case LU:
		return "LU"
	case LUP:
		return "LUP"
	case LUI:
		return "LUI"
	case TwoLUPI:
		return "2LUPI"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// ByName resolves a strategy name ("LU", "LUP", "LUI", "2LUPI").
func ByName(name string) (Strategy, error) {
	for _, s := range All() {
		if s.Name() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("index: unknown strategy %q", name)
}

// Sub-index table roles.
const (
	pathTable = "paths"
	idTable   = "ids"
	flatTable = "entries"
)

// Tables lists the store tables the strategy maintains. LU, LUP and LUI use
// a single table; 2LUPI uses one per sub-index (Section 6).
func (s Strategy) Tables() []string {
	switch s {
	case TwoLUPI:
		return []string{s.TableName(pathTable), s.TableName(idTable)}
	default:
		return []string{s.TableName(flatTable)}
	}
}

// TableName forms the table name of a sub-index.
func (s Strategy) TableName(role string) string {
	return "idx_" + s.Name() + "_" + role
}

// pathTableName returns the table holding path entries, or "" if the
// strategy stores none.
func (s Strategy) pathTableName() string {
	switch s {
	case LUP:
		return s.TableName(flatTable)
	case TwoLUPI:
		return s.TableName(pathTable)
	}
	return ""
}

// idTableName returns the table holding identifier entries, or "".
func (s Strategy) idTableName() string {
	switch s {
	case LUI:
		return s.TableName(flatTable)
	case TwoLUPI:
		return s.TableName(idTable)
	}
	return ""
}

// luTableName returns the table holding bare URI entries, or "".
func (s Strategy) luTableName() string {
	if s == LU {
		return s.TableName(flatTable)
	}
	return ""
}

// Entry is one index entry for one document: the key plus the values to be
// stored under the attribute named URI(d).
type Entry struct {
	Key    string
	Values [][]byte
}

// Extraction is the result of Extract: entries grouped by store table, in
// deterministic (sorted-key) order, plus summary metrics.
type Extraction struct {
	URI     string
	Tables  map[string][]Entry
	Entries int   // total entries across tables
	Bytes   int64 // total key+value payload (the raw index size sr(D,I))
}

// Options tunes extraction for the target store.
type Options struct {
	// BinaryIDs selects the compressed binary identifier codec (DynamoDB);
	// text otherwise (SimpleDB).
	BinaryIDs bool
	// MaxValueBytes caps a single stored value; identifier sets and path
	// lists split across several values/items beyond it.
	MaxValueBytes int
	// SkipWords disables full-text (w‖word) keys, the "without keywords"
	// index variant of Figure 8.
	SkipWords bool
	// CompressPaths front-codes LUP/2LUPI path lists (the improvement the
	// paper's conclusion suggests). Compressed and plain entries can
	// coexist; readers decode transparently.
	CompressPaths bool
}

// DefaultOptions returns extraction options for a DynamoDB-backed index.
func DefaultOptions() Options {
	return Options{BinaryIDs: true, MaxValueBytes: 48 << 10}
}

// Extract computes I(d) for the strategy (Table 2): per table, one entry
// per key of the document in sorted key order, holding nothing (LU), the
// key's label paths in sorted order (LUP) or its identifiers in pre order
// (LUI). The collector's pass yields keys, (key, prefix) pairs and
// identifier lists; this function turns them into entries. Path values,
// headerless identifier values and the Values slices are capacity-limited
// sub-slices of one buffer each, fresh per document, so the document costs
// a handful of allocations, not one per value, and nothing it returns
// points into the pooled collector.
func Extract(s Strategy, doc *xmltree.Document, opts Options) *Extraction {
	if opts.MaxValueBytes == 0 {
		opts.MaxValueBytes = DefaultOptions().MaxValueBytes
	}
	luTable, pathTable, idTable := s.luTableName(), s.pathTableName(), s.idTableName()
	c := collect(doc, opts.SkipWords, pathTable != "", idTable != "")
	defer c.release()
	keys := c.sortedKeys()

	ex := &Extraction{URI: doc.URI, Tables: make(map[string][]Entry, 2)}
	entries := make([]Entry, len(keys)*len(s.Tables()))
	table := func() []Entry {
		t := entries[:0:len(keys)]
		entries = entries[len(keys):]
		return t
	}
	add := func(t []Entry, e Entry) []Entry {
		ex.Entries++
		ex.Bytes += int64(len(e.Key))
		for _, v := range e.Values {
			ex.Bytes += int64(len(v))
		}
		return append(t, e)
	}

	if luTable != "" {
		t, none := table(), make([][]byte, len(keys))
		for i, sk := range keys {
			t = add(t, Entry{Key: sk.key, Values: none[i : i+1 : i+1]})
		}
		ex.Tables[luTable] = t
	}
	if pathTable != "" {
		buf := make([]byte, 0, c.pathBytes)
		values := make([][]byte, len(c.links))
		t := table()
		for _, sk := range keys {
			ks := &c.keys[sk.k]
			paths := values[:ks.nPaths:ks.nPaths]
			values = values[ks.nPaths:]
			first := len(buf)
			for i, l := 0, ks.head; l >= 0; i, l = i+1, c.links[l].next {
				start := len(buf)
				buf = c.appendPath(buf, c.links[l].prefix, sk.k)
				paths[i] = buf[start:len(buf):len(buf)]
			}
			plainBytes := len(buf) - first
			slices.SortFunc(paths, bytes.Compare)
			if opts.CompressPaths {
				// Adaptive: front-coding pays a header per path, so short
				// single-path lists can come out larger — keep whichever
				// encoding is smaller (readers handle both).
				comp := frontCode(paths, opts.MaxValueBytes)
				compBytes := 0
				for _, v := range comp {
					compBytes += len(v)
				}
				if compBytes < plainBytes {
					paths = comp
				}
			}
			t = add(t, Entry{Key: sk.key, Values: paths})
		}
		ex.Tables[pathTable] = t
	}
	if idTable != "" {
		ids := c.dealIDs(doc.Nodes())
		// The headerless streams, almost every binary value at Web-document
		// sizes, share one buffer; a triple takes three to five bytes.
		var buf []byte
		if opts.BinaryIDs {
			streamIDs := 0
			for k := range c.keys {
				if n := int(c.keys[k].nID); n < blockedMinIDs {
					streamIDs += n
				}
			}
			buf = make([]byte, 0, 5*streamIDs)
		}
		values := make([][]byte, 0, len(keys))
		t := table()
		for _, sk := range keys {
			ks := &c.keys[sk.k]
			first := len(values)
			buf, values = appendIDs(buf, values, ids[ks.idOff:ks.idOff+ks.nID], opts.BinaryIDs, opts.MaxValueBytes)
			t = add(t, Entry{Key: sk.key, Values: values[first:len(values):len(values)]})
		}
		ex.Tables[idTable] = t
	}
	return ex
}
