package index

import (
	"sort"

	"repro/internal/xmltree"
)

// This file holds extraction as it was before the single-pass collector:
// one NodeKeys call per key occurrence, a map of path strings per key. It is the definition the collector is tested against
// (TestExtractMatchesReference, FuzzExtractDifferential); nothing outside
// the tests calls it.

// keyInfo accumulates everything indexable about one key of one document.
type keyInfo struct {
	paths map[string]bool
	ids   []xmltree.NodeID
}

// extractReference computes I(d) for the strategy (Table 2) by definition.
func extractReference(s Strategy, doc *xmltree.Document, opts Options) *Extraction {
	return assembleReference(s, doc.URI, collectReference(doc, opts.SkipWords, s.pathTableName() != ""), opts)
}

// assembleReference turns what collectReference gathered, with the same
// SkipWords, into the strategy's extraction.
func assembleReference(s Strategy, uri string, infos map[string]*keyInfo, opts Options) *Extraction {
	if opts.MaxValueBytes == 0 {
		opts.MaxValueBytes = DefaultOptions().MaxValueBytes
	}
	keys := make([]string, 0, len(infos))
	for k := range infos {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	ex := &Extraction{URI: uri, Tables: make(map[string][]Entry)}
	add := func(table string, e Entry) {
		if table == "" {
			return
		}
		ex.Tables[table] = append(ex.Tables[table], e)
		ex.Entries++
		ex.Bytes += int64(len(e.Key))
		for _, v := range e.Values {
			ex.Bytes += int64(len(v))
		}
	}
	for _, k := range keys {
		info := infos[k]
		add(s.luTableName(), Entry{Key: k, Values: [][]byte{nil}})
		if t := s.pathTableName(); t != "" {
			paths := make([]string, 0, len(info.paths))
			for p := range info.paths {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			values := make([][]byte, len(paths))
			var plainBytes int64
			for i, p := range paths {
				values[i] = []byte(p)
				plainBytes += int64(len(p))
			}
			if opts.CompressPaths {
				comp := EncodePathsCompressed(paths, opts.MaxValueBytes)
				var compBytes int64
				for _, v := range comp {
					compBytes += int64(len(v))
				}
				if compBytes < plainBytes {
					values = comp
				}
			}
			add(t, Entry{Key: k, Values: values})
		}
		if t := s.idTableName(); t != "" {
			add(t, Entry{Key: k, Values: EncodeIDs(info.ids, opts.BinaryIDs, opts.MaxValueBytes)})
		}
	}
	return ex
}

// collectReference gathers the identifier list of every key, and its paths
// if paths is set. Nodes are visited in pre order, so each key's identifier
// list is sorted by pre, and a node's parent comes before it: a node's path
// under key k is PathOf(n, k), its parent's path extended by k's component,
// which is how it is built here — once per node, where PathOf's walk over
// the ancestors would make the reference quadratic in the depth.
func collectReference(doc *xmltree.Document, skipWords, paths bool) map[string]*keyInfo {
	infos := make(map[string]*keyInfo)
	get := func(k string) *keyInfo {
		info, ok := infos[k]
		if !ok {
			info = &keyInfo{paths: make(map[string]bool)}
			infos[k] = info
		}
		return info
	}
	elemPaths := make(map[*xmltree.Node]string) // an element's own path
	for _, n := range doc.Nodes() {
		var parent string
		if paths && n.Parent != nil {
			parent = elemPaths[n.Parent]
		}
		if paths && n.Kind == xmltree.Element {
			elemPaths[n] = parent + "/" + escapeComponent(ElementKey(n.Label))
		}
		if skipWords && n.Kind == xmltree.Text {
			continue
		}
		for _, k := range NodeKeys(n) {
			info := get(k)
			if paths {
				info.paths[parent+"/"+escapeComponent(k)] = true
			}
			info.ids = append(info.ids, n.ID)
		}
	}
	return infos
}
