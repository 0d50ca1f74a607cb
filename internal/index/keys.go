// Package index implements the paper's four cloud indexing strategies
// (Section 5, Table 2) — LU, LUP, LUI and 2LUPI — together with their
// key-value store mapping (Section 6) and the strategy-specific look-up
// algorithms (Sections 5.1-5.5).
//
// For a document d and strategy I, Extract computes I(d): the set of index
// entries (k, (a, v+)+) to add to the index store, where the attribute name
// a is URI(d) and the values depend on the strategy — nothing (LU), the
// label paths inPath(n) (LUP), or the concatenated sorted structural
// identifiers (LUI). 2LUPI materializes both LUP and LUI in two tables.
//
// LoadDocument maps entries onto key-value items exactly as Section 6
// describes: composite primary keys made of the entry key (hash) and a
// UUID (range), so concurrent loaders never overwrite each other; large
// entries split across several items to respect the 64 KB DynamoDB item
// cap; identifier sets stored as compressed binary values on DynamoDB and
// as text on SimpleDB (whose limits forbid binary values).
package index

import (
	"strings"

	"repro/internal/pattern"
	"repro/internal/xmltree"
)

// Key construction (Section 5, "Notations"): e, a and w are constant
// prefixes and ‖ is concatenation; an attribute yields both a name key and
// a name-value key.
const (
	elementPrefix = "e"
	attrPrefix    = "a"
	wordPrefix    = "w"
)

// ElementKey returns key(n) for an element node: e‖label.
func ElementKey(label string) string { return elementPrefix + label }

// AttrNameKey returns the first key of an attribute node: a‖name.
func AttrNameKey(name string) string { return attrPrefix + name }

// AttrValueKey returns the second key of an attribute node, reflecting its
// value: a‖name⎵value.
func AttrValueKey(name, value string) string { return attrPrefix + name + " " + value }

// WordKey returns key(n) for a word: w‖word.
func WordKey(word string) string { return wordPrefix + word }

// NodeKeys returns the index keys of one document node (two for an
// attribute, one per distinct word for a text node).
func NodeKeys(n *xmltree.Node) []string {
	switch n.Kind {
	case xmltree.Element:
		return []string{ElementKey(n.Label)}
	case xmltree.Attribute:
		return []string{AttrNameKey(n.Label), AttrValueKey(n.Label, n.Text)}
	case xmltree.Text:
		words := xmltree.Words(n.Text)
		keys := make([]string, 0, len(words))
		seen := make(map[string]bool, len(words))
		for _, w := range words {
			k := WordKey(w)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		return keys
	default:
		return nil
	}
}

// Label paths (inPath(n), Sections 5.2/5.4) are stored as strings of
// "/"-separated key components, e.g. "/epainting/ename/wOlympia". Key
// components may themselves contain "/" (an attribute value key such as
// "adate 07/04/2026"), so components are escaped before joining.

// escapeComponent makes a key safe to embed as one path component.
func escapeComponent(key string) string {
	if escapedLen(key) == len(key) {
		return key
	}
	return string(appendEscaped(nil, key))
}

// appendEscaped appends the escaped form of a key: "%" as "%25", "/" as
// "%2F".
func appendEscaped[K ~string | ~[]byte](dst []byte, key K) []byte {
	for i := 0; i < len(key); i++ {
		switch b := key[i]; b {
		case '%':
			dst = append(dst, "%25"...)
		case '/':
			dst = append(dst, "%2F"...)
		default:
			dst = append(dst, b)
		}
	}
	return dst
}

// escapedLen is the length of the escaped form of a key.
func escapedLen[K ~string | ~[]byte](key K) int {
	n := len(key)
	for i := 0; i < len(key); i++ {
		if key[i] == '%' || key[i] == '/' {
			n += 2
		}
	}
	return n
}

// PathOf returns the stored label path of a node, using the given key for
// the node's own (final) component.
func PathOf(n *xmltree.Node, finalKey string) string {
	var parts []string
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		parts = append(parts, escapeComponent(ElementKey(cur.Label)))
	}
	// parts is leaf-to-root; reverse while building.
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	b.WriteByte('/')
	b.WriteString(escapeComponent(finalKey))
	return b.String()
}

// QueryStep is one step of an encoded query path: the axis from the
// previous step and the exact key component to match.
type QueryStep struct {
	Axis pattern.Axis
	Key  string
}

// MatchPath reports whether a stored label path matches a query path
// (Section 5.2): components must appear in order, with '/' steps adjacent
// and '//' steps at any distance, and the last step must be the path's
// final component.
func MatchPath(steps []QueryStep, stored string) bool {
	if len(steps) == 0 || !strings.HasPrefix(stored, "/") {
		return false
	}
	comps := strings.Split(stored[1:], "/")
	return matchFrom(steps, comps)
}

// matchFrom matches steps against path components: a Child step consumes
// the immediately next component; a Descendant step may skip any number of
// components first. The full component list must be consumed, since query
// paths are root-to-leaf and the looked-up key is the stored path's final
// component.
func matchFrom(steps []QueryStep, comps []string) bool {
	if len(steps) == 0 {
		return len(comps) == 0 // query paths are root-to-leaf: must consume all
	}
	s := steps[0]
	want := escapeComponent(s.Key)
	if s.Axis == pattern.Child {
		if len(comps) == 0 || comps[0] != want {
			return false
		}
		return matchFrom(steps[1:], comps[1:])
	}
	for i := 0; i < len(comps); i++ {
		if comps[i] == want && matchFrom(steps[1:], comps[i+1:]) {
			return true
		}
	}
	return false
}
