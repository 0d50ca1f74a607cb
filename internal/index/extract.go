package index

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/idblock"
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

	mem *extractMem // ExtractPooled's memory, nil for Extract's
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
// identifier lists; extractMem.fill turns them into entries. The keys, the
// path values, the headerless identifier values and the Values slices are
// capacity-limited sub-slices of one buffer each, so the document costs a
// handful of allocations, not one per value, and nothing it returns points
// into the pooled collector. The memory is the caller's for good: a caller
// that keeps nothing of the extraction once it has read it takes
// ExtractPooled instead.
func Extract(s Strategy, doc *xmltree.Document, opts Options) *Extraction {
	m := &extractMem{ex: Extraction{Tables: make(map[string][]Entry, 2)}}
	m.fill(s, doc, opts)
	return &m.ex
}

// ExtractPooled is Extract in memory taken from a pool, which Release gives
// back. Between the two the extraction reads as Extract's; after Release
// nothing of it may be read, not a table, a key or a value: the next
// ExtractPooled writes over them. The bulk-build driver uses it, since the
// BulkLoader copies what it keeps; the mutable corpus, which keeps what it
// is given, uses Extract.
func ExtractPooled(s Strategy, doc *xmltree.Document, opts Options) *Extraction {
	m := extractPool.Get().(*extractMem)
	m.fill(s, doc, opts)
	m.ex.mem = m
	return &m.ex
}

// extractMem is an extraction with the buffers its entries live in:
// entries holds every table's entries, the three value tables the entries'
// Values slices, paths and ids the path and headerless identifier values,
// keys the bytes of every key; packing is the column scratch of the blocked
// identifier values.
type extractMem struct {
	ex                     Extraction
	entries                []Entry
	none, pathVals, idVals [][]byte
	paths, ids, keys       []byte
	packing                idblock.Arena
}

var extractPool = sync.Pool{New: func() any {
	return &extractMem{ex: Extraction{Tables: make(map[string][]Entry, 2)}}
}}

// Release gives the memory of an extraction made by ExtractPooled back to
// the pool, emptied: a buffer that grew past maxPooledBytes is dropped
// instead, so one huge document does not make every later extraction carry
// it. Only the extraction's owner may call it, once nothing reads the
// extraction any more. On an extraction made by Extract, or a second time,
// it does nothing.
func (ex *Extraction) Release() {
	m := ex.mem
	if m == nil {
		return
	}
	clear(m.ex.Tables)
	m.ex = Extraction{Tables: m.ex.Tables}
	m.entries = reuse(m.entries)
	m.none, m.pathVals, m.idVals = reuse(m.none), reuse(m.pathVals), reuse(m.idVals)
	// Bytes point at nothing: only their length is reset.
	m.paths, m.ids, m.keys = reuse(m.paths[:0]), reuse(m.ids[:0]), reuse(m.keys[:0])
	extractPool.Put(m)
}

// reuse returns s emptied with its room, its elements zeroed so that the
// pool pins nothing they pointed to, or nil if s holds more than
// maxPooledBytes.
func reuse[T any](s []T) []T {
	if bytesOf(s) > maxPooledBytes {
		return nil
	}
	clear(s)
	return s[:0]
}

// grow returns buf emptied, with room for n elements.
func grow[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n) }

// fill extracts doc into m.ex, in m's buffers.
func (m *extractMem) fill(s Strategy, doc *xmltree.Document, opts Options) {
	if opts.MaxValueBytes == 0 {
		opts.MaxValueBytes = DefaultOptions().MaxValueBytes
	}
	luTable, pathTable, idTable := s.luTableName(), s.pathTableName(), s.idTableName()
	c := collect(doc, opts.SkipWords, pathTable != "", idTable != "")
	defer c.release()
	m.keys = append(m.keys[:0], c.keyBuf...)
	keys := c.sortedKeys(unsafe.String(unsafe.SliceData(m.keys), len(m.keys)))

	ex := &m.ex
	ex.URI = doc.URI
	n := len(keys) * len(s.Tables())
	m.entries = grow(m.entries, n)[:n]
	entries := m.entries
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
		m.none = grow(m.none, len(keys))[:len(keys)]
		t, none := table(), m.none
		for i, sk := range keys {
			t = add(t, Entry{Key: sk.key, Values: none[i : i+1 : i+1]})
		}
		ex.Tables[luTable] = t
	}
	if pathTable != "" {
		// pathBytes is exact: buf never moves.
		m.paths = grow(m.paths, c.pathBytes)
		m.pathVals = grow(m.pathVals, len(c.links))[:len(c.links)]
		buf, values := m.paths, m.pathVals
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
			buf = grow(m.ids, 5*streamIDs)
		}
		values := grow(m.idVals, len(keys))
		t := table()
		for _, sk := range keys {
			ks := &c.keys[sk.k]
			first := len(values)
			buf, values = appendIDs(buf, values, ids[ks.idOff:ks.idOff+ks.nID], opts.BinaryIDs, opts.MaxValueBytes, &m.packing)
			t = add(t, Entry{Key: sk.key, Values: values[first:len(values):len(values)]})
		}
		if opts.BinaryIDs {
			m.ids = buf
		}
		m.idVals = values
		ex.Tables[idTable] = t
	}
}
