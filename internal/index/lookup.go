package index

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cloud/kv"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/twigjoin"
	"repro/internal/xmltree"
)

// This file implements the look-up side of the strategies (Sections
// 5.1-5.5): given a query, consult the index as precisely as possible to
// find the documents that may hold answers.
//
// All strategies ignore range predicates during look-up (a range scan over
// a key-value store would require a full scan, Section 5.5); the engine
// applies them when evaluating the query on the retrieved documents.
// Queries made of several tree patterns connected by value joins are looked
// up one pattern at a time.

// LookupStats aggregates the cost-relevant facts of one look-up.
type LookupStats struct {
	// GetOps is |op(q,D,I)|: the number of index keys looked up against
	// the store. Keys served from a posting cache do not count — a cache
	// hit issues no billed request (Section 7's cost model).
	GetOps int64
	// GetTime is the modeled index-store latency (the "DynamoDB get" bar
	// of Figure 9b/c).
	GetTime time.Duration
	// BytesFetched is the index payload retrieved; the physical plan that
	// post-processes it (intersections, path filtering, twig joins — the
	// "plan execution" bar) is CPU work proportional to it.
	BytesFetched int64
	// TwigCandidates counts the documents whose identifier streams entered
	// the holistic twig join (LUI and 2LUPI only). It quantifies the
	// effect of 2LUPI's semijoin reduction (Figure 5): the reduction
	// shrinks this number relative to plain LUI.
	TwigCandidates int
	// CacheHits, CacheMisses and CacheEvictions report the posting-cache
	// traffic of the look-up (all zero when no cache is configured).
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	// StoreRetries counts store-level retry attempts absorbed while serving
	// this look-up, when the store is wrapped in kv.Retry. It surfaces
	// degradation (throttling, injected chaos) that the result itself hides;
	// exact for a single-reader store, advisory under concurrent readers.
	StoreRetries int64
}

func (s *LookupStats) add(o LookupStats) {
	s.GetOps += o.GetOps
	s.GetTime += o.GetTime
	s.BytesFetched += o.BytesFetched
	s.TwigCandidates += o.TwigCandidates
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheEvictions += o.CacheEvictions
	s.StoreRetries += o.StoreRetries
}

// LookupOptions tunes the execution of a look-up without changing its
// result: any cache state returns byte-identical URI lists.
type LookupOptions struct {
	// Concurrency is read by nothing: a look-up runs on its caller's
	// goroutine. It stays because the benchmark module sets it.
	Concurrency int
	// Cache, when non-nil, is consulted before the store and filled with
	// fetched postings. The same cache must not front two different
	// stores.
	Cache *PostingCache
	// Span, when non-nil, is the parent under which the look-up emits its
	// pipeline spans (index.get, semijoin, twigjoin), and which it gives a
	// scratch_kb attribute: the high-water mark of the look-up's scratch
	// memory, the largest of its patterns'. A nil Span — the default, and
	// always the case when tracing is off — makes every span operation a
	// no-op.
	Span *obs.Span
	// Joins, when non-nil, receives the block-level counters of the
	// operate-on-compressed kernels (blocks read / blocks skipped) and the
	// postings the look-up built. A nil Joins makes every update a no-op.
	Joins *JoinCounters
	// Ctx carries cancellation to every store read: a look-up whose context
	// is done stops with its error before the next read is billed. A nil Ctx
	// (the default) stands for context.Background() and never cancels.
	Ctx context.Context
	// View, when non-nil, pins the look-up to a snapshot of a mutable
	// corpus: each key's write-buffer overlay is captured before the store
	// fetch, replacement contributions supersede the key's main-store
	// items, and tombstones are subtracted from the decoded lists. Cache
	// identities fold in the overlay stamp, so look-ups pinned across a
	// mutation boundary never share a stale entry.
	View ReadView

	// scratch is the memory of the look-up a read belongs to: ReadKeys
	// carves the lists it decodes from it, unless Cache is to keep them.
	// Only a look-up sets it.
	scratch *scratch
}

// resolveLookup flattens the optional trailing options of the exported
// look-up entry points. It is the one place a zero Ctx becomes
// context.Background(): everything below reads opt.Ctx as is.
func resolveLookup(opts []LookupOptions) LookupOptions {
	var opt LookupOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	return opt
}

// LookupQuery looks up each tree pattern of the query and returns one URI
// list per pattern, sorted, plus combined statistics.
func LookupQuery(store kv.Store, s Strategy, q *pattern.Query, opts ...LookupOptions) ([][]string, LookupStats, error) {
	opt := resolveLookup(opts)
	var stats LookupStats
	out := make([][]string, len(q.Patterns))
	for i, t := range q.Patterns {
		uris, st, err := LookupPattern(store, s, t, opt)
		if err != nil {
			return nil, stats, fmt.Errorf("pattern %d: %w", i, err)
		}
		stats.add(st)
		out[i] = uris
	}
	return out, stats, nil
}

// LookupPattern returns the sorted URIs of the documents that may embed the
// tree pattern, according to the strategy. The look-up works in a pooled
// scratch, released when it returns.
func LookupPattern(store kv.Store, s Strategy, t *pattern.Tree, opts ...LookupOptions) ([]string, LookupStats, error) {
	opt := resolveLookup(opts)
	sc := getScratch()
	defer sc.release()
	uris, st, err := lookupPattern(store, s, t, opt, sc)
	// Whole KB rounded up: a look-up that used its scratch never reads 0.
	opt.Span.MaxAttrInt("scratch_kb", (sc.bytes()+1023)/1024)
	return uris, st, err
}

// lookupPattern is LookupPattern in sc's memory. Only the URI list it
// returns is on the heap.
func lookupPattern(store kv.Store, s Strategy, t *pattern.Tree, opt LookupOptions, sc *scratch) ([]string, LookupStats, error) {
	aug := augment(t)
	switch s {
	case LU:
		return lookupLU(store, s.luTableName(), aug, opt, sc)
	case LUP:
		return lookupLUP(store, s.pathTableName(), aug, opt, sc)
	case LUI:
		return lookupLUI(store, s.idTableName(), aug, nil, opt, sc)
	case TwoLUPI:
		// The LUP phase computes R1, the reduction set of Figure 5's
		// LUP⋉LUI semijoin; its index reads nest under the semijoin span.
		sj := opt.Span.Child(obs.SpanSemijoin)
		lupOpt := opt
		lupOpt.Span = sj
		uris, st1, err := lookupLUP(store, s.pathTableName(), aug, lupOpt, sc)
		sj.SetModeled(st1.GetTime)
		sj.SetAttrInt("reduce_uris", int64(len(uris)))
		sj.SetError(err)
		sj.End()
		if err != nil {
			return nil, st1, err
		}
		if uris == nil {
			uris = []string{} // an empty reduction still reduces
		}
		// R1 is on the heap, and nothing else the LUP phase carved is read
		// again: the LUI phase reuses its memory.
		sc.recycle()
		out, st2, err := lookupLUI(store, s.idTableName(), aug, uris, opt, sc)
		st2.add(st1)
		return out, st2, err
	default:
		return nil, LookupStats{}, fmt.Errorf("index: unknown strategy %v", s)
	}
}

// augmented is a copy of the pattern with look-up keys resolved and value
// predicates turned into structure: an equality or containment predicate on
// an element adds one virtual descendant node per constant word, carrying
// the corresponding w‖word key (the words of the value are text descendants
// of the element).
type augmented struct {
	tree *pattern.Tree
	keys map[*pattern.Node]string
}

func augment(t *pattern.Tree) *augmented {
	a := &augmented{keys: make(map[*pattern.Node]string)}
	var clone func(n *pattern.Node) *pattern.Node
	clone = func(n *pattern.Node) *pattern.Node {
		c := &pattern.Node{Label: n.Label, IsAttr: n.IsAttr, Axis: n.Axis}
		switch {
		case n.IsAttr && n.Pred.Kind == pattern.Eq:
			// The attribute name-value key serves exactly this case
			// (Section 5, "these help speed up specific kinds of
			// queries").
			a.keys[c] = AttrValueKey(n.Label, n.Pred.Const)
		case n.IsAttr:
			a.keys[c] = AttrNameKey(n.Label)
		default:
			a.keys[c] = ElementKey(n.Label)
		}
		if !n.IsAttr {
			var words []string
			switch n.Pred.Kind {
			case pattern.Eq, pattern.Contains:
				// Both predicates index on the words of the constant: an
				// equality match trivially contains every word of its
				// constant, so look-up treats them alike and the engine
				// tells them apart on the fetched documents.
				words = xmltree.Words(n.Pred.Const)
			}
			c.Children = make([]*pattern.Node, 0, len(words)+len(n.Children))
			for _, w := range words {
				v := &pattern.Node{Label: "#word:" + w, Axis: pattern.Descendant, Parent: c}
				a.keys[v] = WordKey(w)
				c.Children = append(c.Children, v)
			}
		}
		for _, ch := range n.Children {
			cc := clone(ch)
			cc.Parent = c
			c.Children = append(c.Children, cc)
		}
		return c
	}
	a.tree = &pattern.Tree{Root: clone(t.Root)}
	return a
}

// distinctKeys lists the look-up keys of the augmented pattern, sorted.
func (a *augmented) distinctKeys() []string {
	set := make(map[string]bool)
	a.tree.Walk(func(n *pattern.Node) { set[a.keys[n]] = true })
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// queryPaths derives the root-to-leaf key paths of the augmented pattern
// (Section 5.2).
func (a *augmented) queryPaths() [][]QueryStep {
	var out [][]QueryStep
	var path []QueryStep // from the root to the node at hand
	var rec func(n *pattern.Node)
	rec = func(n *pattern.Node) {
		path = append(path, QueryStep{Axis: n.Axis, Key: a.keys[n]})
		if len(n.Children) == 0 {
			out = append(out, slices.Clone(path))
		}
		for _, c := range n.Children {
			rec(c)
		}
		path = path[:len(path)-1]
	}
	rec(a.tree.Root)
	return out
}

// readKeysSpanned is ReadKeys wrapped in an index.get span (a no-op chain
// when opt.Span is nil): the raw store reads of one look-up phase, with the
// billed get count, bytes and modeled store latency annotated. It returns
// the lists in keys' order and leaves the span open: the phase's
// buildPostings ends it once it has built the postings of its survivors.
func readKeysSpanned(store kv.Store, table string, keys []string, kind PostingKind, binaryIDs bool, opt LookupOptions, sc *scratch) ([]*PostingList, LookupStats, *obs.Span, error) {
	get := opt.Span.Child(obs.SpanIndexGet)
	get.SetAttr("table", table)
	get.SetAttrInt("keys", int64(len(keys)))
	opt.scratch = sc
	byKey, rs, err := ReadKeys(store, table, keys, kind, binaryIDs, opt)
	get.SetModeled(rs.GetTime)
	get.SetAttrInt("get_ops", rs.GetOps)
	get.SetAttrInt("bytes", rs.BytesFetched)
	if err != nil {
		get.SetError(err)
		get.End()
		return nil, LookupStats{}, nil, err
	}
	lists := sc.listSlice(len(keys))
	seen := 0
	for i, k := range keys {
		lists[i] = byKey[k]
		seen += lists[i].Len()
	}
	get.SetAttrInt("uris_seen", int64(seen))
	return lists, rs, get, nil
}

// buildPostings builds the postings of the survivors of an intersection of
// lists in sc, in the order intersect returned them (survivor-major, one
// per list), and ends the phase's index.get span with the count it built.
func buildPostings(lists []*PostingList, at []int32, get *obs.Span, opt LookupOptions, sc *scratch) ([]*Posting, error) {
	postings := take(&sc.ptrs, len(at))
	built := 0
	var err error
	for i, row := range at {
		var fresh bool
		if postings[i], fresh, err = lists[i%len(lists)].postingAt(int(row), sc); err != nil {
			break
		}
		if fresh {
			built++
		}
	}
	opt.Joins.addBuilt(built)
	get.SetAttrInt("postings_built", int64(built))
	get.SetError(err)
	get.End()
	return postings, err
}

// lookupLU implements Section 5.1: look up every key extracted from the
// query and intersect the URI sets.
func lookupLU(store kv.Store, table string, aug *augmented, opt LookupOptions, sc *scratch) ([]string, LookupStats, error) {
	lists, stats, get, err := readKeysSpanned(store, table, aug.distinctKeys(), URIPosting, false, opt, sc)
	if err != nil {
		return nil, LookupStats{}, err
	}
	uris, _ := intersect(lists, sc)
	buildPostings(lists, nil, get, opt, sc) // none: presence is the answer
	return heapURIs(uris), stats, nil
}

// lookupLUP implements Section 5.2: for each root-to-leaf query path, look
// up the key of its last step and keep the URIs having a stored data path
// that matches the query path; intersect across query paths. A URI that
// some last-step key lacks cannot survive the intersection, so the keys'
// URI sets are intersected first and postings are built and matched only
// for the URIs every key holds. Every path value was validated when its key
// was read, so skipping the others hides no error.
func lookupLUP(store kv.Store, table string, aug *augmented, opt LookupOptions, sc *scratch) ([]string, LookupStats, error) {
	paths := aug.queryPaths()
	keySet := make(map[string]bool)
	for _, p := range paths {
		keySet[p[len(p)-1].Key] = true
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lists, stats, get, err := readKeysSpanned(store, table, keys, PathPosting, false, opt, sc)
	if err != nil {
		return nil, LookupStats{}, err
	}
	uris, at := intersect(lists, sc)
	postings, err := buildPostings(lists, at, get, opt, sc)
	if err != nil {
		return nil, LookupStats{}, err
	}

	matchers := make([]*PathMatcher, len(paths))
	keyOf := make([]int, len(paths)) // each query path's last-step key, by index
	for i, qp := range paths {
		matchers[i] = NewPathMatcher(qp)
		keyOf[i], _ = slices.BinarySearch(keys, qp[len(qp)-1].Key)
	}
	out := take(&sc.uris, len(uris))[:0]
	for ui, uri := range uris {
		ok := true
		for i := range paths {
			if ok, err = matchesAny(matchers[i], postings[ui*len(keys)+keyOf[i]]); err != nil {
				return nil, LookupStats{}, err
			}
			if !ok {
				break
			}
		}
		if ok {
			out = append(out, uri)
		}
	}
	return heapURIs(out), stats, nil
}

// heapURIs copies the URI list a look-up returns out of its scratch, nil
// when it is empty.
func heapURIs(uris []string) []string {
	if len(uris) == 0 {
		return nil
	}
	return slices.Clone(uris)
}

// matchesAny reports whether any of the posting's path values matches.
func matchesAny(m *PathMatcher, p *Posting) (bool, error) {
	for _, v := range p.PathVals {
		if ok, err := m.MatchValue(v); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// lookupLUI implements Sections 5.3-5.4: fetch the identifier streams of
// every query key and run the holistic twig join per candidate document.
// When reduce is non-nil (the 2LUPI plan of Figure 5), only URIs in it are
// considered — the semijoin with the LUP result R1, which joins the merge
// as one more list.
func lookupLUI(store kv.Store, table string, aug *augmented, reduce []string, opt LookupOptions, sc *scratch) ([]string, LookupStats, error) {
	keys := aug.distinctKeys()
	lists, stats, get, err := readKeysSpanned(store, table, keys, IDPosting, store.Limits().SupportsBinary, opt, sc)
	if err != nil {
		return nil, LookupStats{}, err
	}

	// Candidate URIs must appear under every key (and pass the reduction).
	// The merge returns them sorted, the order the joins below run in.
	merged := lists
	if reduce != nil {
		merged = sc.listSlice(len(lists) + 1)
		copy(merged, lists)
		merged[len(lists)] = uriList(reduce, sc)
	}
	ordered, at := intersect(merged, sc)
	if reduce != nil {
		// The reduction list has no postings: drop its column.
		kept := at[:0]
		for i, row := range at {
			if i%len(merged) < len(keys) {
				kept = append(kept, row)
			}
		}
		at = kept
	}
	postings, err := buildPostings(lists, at, get, opt, sc)
	if err != nil {
		return nil, LookupStats{}, err
	}
	stats.TwigCandidates = len(ordered)
	tj := opt.Span.Child(obs.SpanTwigJoin)
	tj.SetAttrInt("candidates", int64(len(ordered)))

	// One holistic twig join per candidate. A failed join does not stop the
	// others, and the first error in candidate order is the look-up's.
	//
	// Only here do identifier sets decode: a raw posting on its first IDSet,
	// a blocked one block by block inside the join. decoded counts the raw
	// postings this look-up decoded: none that an earlier look-up sharing
	// them through the cache decoded already, none that are blocked.
	type nodeKey struct {
		n  *pattern.Node
		ki int
	}
	var nodes []nodeKey
	aug.tree.Walk(func(n *pattern.Node) {
		ki, _ := slices.BinarySearch(keys, aug.keys[n])
		nodes = append(nodes, nodeKey{n, ki})
	})
	var (
		total   twigjoin.JoinStats
		decoded int
		joinErr error
	)
	sc.sets = slices.Grow(sc.sets[:0], len(keys))[:len(keys)]
	out := take(&sc.uris, len(ordered))[:0]
candidates:
	for ci, uri := range ordered {
		for ki := range keys {
			p := postings[ci*len(keys)+ki]
			if p.IDCount() == 0 {
				continue candidates
			}
			var fresh bool
			if sc.sets[ki], fresh = p.idSet(&sc.ids); fresh {
				decoded++
			}
		}
		for _, nk := range nodes {
			sc.streams[nk.n] = sc.sets[nk.ki]
		}
		matched, err := sc.join.MatchIndexed(aug.tree, sc.streams, &total)
		if err != nil && joinErr == nil {
			joinErr = err
		}
		if matched {
			out = append(out, uri)
		}
	}
	opt.Joins.addJoin(total)
	tj.SetAttrInt("postings_decoded", int64(decoded))
	tj.SetAttrInt("blocks_read", total.BlocksRead)
	tj.SetAttrInt("blocks_skipped", total.BlocksSkipped)
	if joinErr != nil {
		tj.SetError(joinErr)
		tj.End()
		return nil, stats, joinErr
	}
	tj.SetAttrInt("matched", int64(len(out)))
	tj.End()
	return heapURIs(out), stats, nil
}
