package index

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cloud/kv"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/resilience"
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
	// CoalescedKeys counts index keys served by joining another in-flight
	// identical fetch instead of issuing a billed request (single-flight
	// coalescing; zero unless LookupOptions.Flight is set).
	CoalescedKeys int64
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
	s.CoalescedKeys += o.CoalescedKeys
}

// LookupOptions tunes the execution of a look-up without changing its
// result: any concurrency level and any cache state return byte-identical
// URI lists.
type LookupOptions struct {
	// Concurrency bounds the worker pool that fans out index batch-gets
	// and per-candidate twig joins. 0 selects GOMAXPROCS; 1 runs the
	// sequential path.
	Concurrency int
	// Cache, when non-nil, is consulted before the store and filled with
	// fetched postings. The same cache must not front two different
	// stores.
	Cache *PostingCache
	// Span, when non-nil, is the parent under which the look-up emits its
	// pipeline spans (index.get, semijoin, twigjoin). A nil Span — the
	// default, and always the case when tracing is off — makes every span
	// operation a no-op.
	Span *obs.Span
	// Joins, when non-nil, receives the block-level counters of the
	// operate-on-compressed kernels (blocks read / blocks skipped /
	// containers intersected). A nil Joins makes every update a no-op.
	Joins *JoinCounters
	// Ctx carries cancellation — and, via resilience.NewContext, the
	// query's modeled-time/retry budget — through every store read and join
	// kernel. A look-up stops with context.Canceled/DeadlineExceeded or
	// resilience.ErrDeadline as soon as the context is done or the budget's
	// modeled deadline is spent; the store latencies it accumulates are
	// charged to the budget. A nil Ctx (the default) stands for
	// context.Background(): it never cancels and charges nothing.
	Ctx context.Context
	// Flight, when non-nil, coalesces concurrent identical index fetches
	// across look-ups (single-flight): a cache-fill stampede on a hot key
	// collapses to one billed store read whose decoded postings every
	// waiter shares. Like Cache, the same group must not front two
	// different stores.
	Flight *resilience.Group
	// View, when non-nil, pins the look-up to a snapshot of a mutable
	// corpus: each key's write-buffer overlay is captured before the store
	// fetch, replacement contributions supersede the key's main-store
	// items, and tombstones are subtracted at posting-decode time. Cache
	// and Flight identities fold in the overlay stamp, so look-ups pinned
	// across a mutation boundary never share a stale entry.
	View ReadView
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

// workers returns the effective worker-pool size.
func (o LookupOptions) workers() int {
	if o.Concurrency > 0 {
		return o.Concurrency
	}
	return runtime.GOMAXPROCS(0)
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
// tree pattern, according to the strategy.
func LookupPattern(store kv.Store, s Strategy, t *pattern.Tree, opts ...LookupOptions) ([]string, LookupStats, error) {
	opt := resolveLookup(opts)
	aug := augment(t)
	switch s {
	case LU:
		return lookupLU(store, s.luTableName(), aug, opt)
	case LUP:
		return lookupLUP(store, s.pathTableName(), aug, opt)
	case LUI:
		return lookupLUI(store, s.idTableName(), aug, nil, opt)
	case TwoLUPI:
		// The LUP phase computes R1, the reduction set of Figure 5's
		// LUP⋉LUI semijoin; its index reads nest under the semijoin span.
		sj := opt.Span.Child(obs.SpanSemijoin)
		lupOpt := opt
		lupOpt.Span = sj
		uris, st1, err := lookupLUP(store, s.pathTableName(), aug, lupOpt)
		sj.SetModeled(st1.GetTime)
		sj.SetAttrInt("reduce_uris", int64(len(uris)))
		sj.SetError(err)
		sj.End()
		if err != nil {
			return nil, st1, err
		}
		reduce := make(map[string]bool, len(uris))
		for _, u := range uris {
			reduce[u] = true
		}
		out, st2, err := lookupLUI(store, s.idTableName(), aug, reduce, opt)
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
	var rec func(n *pattern.Node, prefix []QueryStep)
	rec = func(n *pattern.Node, prefix []QueryStep) {
		path := append(append([]QueryStep{}, prefix...), QueryStep{Axis: n.Axis, Key: a.keys[n]})
		if len(n.Children) == 0 {
			out = append(out, path)
			return
		}
		for _, c := range n.Children {
			rec(c, path)
		}
	}
	rec(a.tree.Root, nil)
	return out
}

// readKeysSpanned is ReadKeys wrapped in an index.get span (a no-op chain
// when opt.Span is nil): the raw store reads of one look-up phase, with the
// billed get count, bytes and modeled store latency annotated.
func readKeysSpanned(store kv.Store, table string, keys []string, kind PostingKind, binaryIDs bool, opt LookupOptions) (map[string]map[string]*Posting, LookupStats, error) {
	get := opt.Span.Child(obs.SpanIndexGet)
	get.SetAttr("table", table)
	get.SetAttrInt("keys", int64(len(keys)))
	postings, rs, err := ReadKeys(store, table, keys, kind, binaryIDs, opt)
	get.SetModeled(rs.GetTime)
	get.SetAttrInt("get_ops", rs.GetOps)
	get.SetAttrInt("bytes", rs.BytesFetched)
	if rs.CoalescedKeys > 0 {
		get.SetAttrInt("coalesced_keys", rs.CoalescedKeys)
	}
	if rt := kv.AsShardRouter(store); rt != nil && rt.ShardCount() > 1 {
		// Annotate how the fetched keys spread over the store's partitions.
		// The child span carries the same modeled time as the read —
		// sharded batches are billed as one request — so per-stage tables
		// show the scatter without double counting.
		sc := get.Child(obs.SpanScatter)
		sc.SetAttrInt("shards", int64(rt.ShardCount()))
		perShard := make([]int64, rt.ShardCount())
		for _, k := range keys {
			perShard[rt.ShardOf(k)]++
		}
		touched := 0
		maxKeys := int64(0)
		for _, n := range perShard {
			if n > 0 {
				touched++
			}
			if n > maxKeys {
				maxKeys = n
			}
		}
		sc.SetAttrInt("shards_touched", int64(touched))
		sc.SetAttrInt("max_shard_keys", maxKeys)
		sc.SetModeled(rs.GetTime)
		sc.SetError(err)
		sc.End()
	}
	get.SetError(err)
	get.End()
	return postings, rs, err
}

// lookupLU implements Section 5.1: look up every key extracted from the
// query and intersect the URI sets.
func lookupLU(store kv.Store, table string, aug *augmented, opt LookupOptions) ([]string, LookupStats, error) {
	keys := aug.distinctKeys()
	postings, stats, err := readKeysSpanned(store, table, keys, URIPosting, false, opt)
	if err != nil {
		return nil, LookupStats{}, err
	}
	var uriSets []map[string]*Posting
	for _, k := range keys {
		uriSets = append(uriSets, postings[k])
	}
	return intersectURIs(uriSets, opt.Joins), stats, nil
}

// lookupLUP implements Section 5.2: for each root-to-leaf query path, look
// up the key of its last step and keep the URIs having a stored data path
// that matches the query path; intersect across query paths.
func lookupLUP(store kv.Store, table string, aug *augmented, opt LookupOptions) ([]string, LookupStats, error) {
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
	postings, stats, err := readKeysSpanned(store, table, keys, PathPosting, false, opt)
	if err != nil {
		return nil, LookupStats{}, err
	}

	var uriSets []map[string]*Posting
	for _, qp := range paths {
		last := qp[len(qp)-1].Key
		matcher := NewPathMatcher(qp)
		matched := make(map[string]*Posting)
		for uri, post := range postings[last] {
			for _, v := range post.PathVals {
				ok, err := matcher.MatchValue(v)
				if err != nil {
					return nil, LookupStats{}, err
				}
				if ok {
					matched[uri] = post
					break
				}
			}
		}
		uriSets = append(uriSets, matched)
	}
	return intersectURIs(uriSets, opt.Joins), stats, nil
}

// lookupLUI implements Sections 5.3-5.4: fetch the identifier streams of
// every query key and run the holistic twig join per candidate document.
// When reduce is non-nil (the 2LUPI plan of Figure 5), only URIs in it are
// considered — the semijoin with the LUP result R1.
func lookupLUI(store kv.Store, table string, aug *augmented, reduce map[string]bool, opt LookupOptions) ([]string, LookupStats, error) {
	keys := aug.distinctKeys()
	postings, stats, err := readKeysSpanned(store, table, keys, IDPosting, store.Limits().SupportsBinary, opt)
	if err != nil {
		return nil, LookupStats{}, err
	}

	// Candidate URIs must appear under every key (and pass the reduction).
	// The bitmap intersector returns them already sorted, which fixes the
	// fan-out order below without a separate sort.
	uriSets := make([]map[string]*Posting, len(keys))
	for i, k := range keys {
		uriSets[i] = postings[k]
	}
	ordered := intersectURIs(uriSets, opt.Joins)
	if reduce != nil {
		kept := ordered[:0]
		for _, uri := range ordered {
			if reduce[uri] {
				kept = append(kept, uri)
			}
		}
		ordered = kept
	}
	stats.TwigCandidates = len(ordered)
	// The reads above charged their modeled latency to the query budget;
	// stop before the CPU-side joins if it is now spent.
	if err := kv.CheckContext(opt.Ctx); err != nil {
		return nil, stats, err
	}
	tj := opt.Span.Child(obs.SpanTwigJoin)
	tj.SetAttrInt("candidates", int64(len(ordered)))

	// The per-candidate holistic twig joins are independent CPU work over
	// read-only postings; fan them out across the worker pool. Candidates
	// are in sorted order so the output (and any future tie-breaking) never
	// depends on scheduling; per-candidate join stats are summed in that
	// same order, keeping the obs counters deterministic too.
	matched := make([]bool, len(ordered))
	joinStats := make([]twigjoin.JoinStats, len(ordered))
	errs := make([]error, len(ordered))
	matchOne := func(ci int) {
		uri := ordered[ci]
		streams := make(twigjoin.IndexedStreams)
		ok := true
		aug.tree.Walk(func(n *pattern.Node) {
			p := postings[aug.keys[n]][uri]
			if p == nil || p.IDCount() == 0 {
				ok = false
				return
			}
			streams[n] = p.IDSet()
		})
		if !ok {
			return
		}
		matched[ci], errs[ci] = twigjoin.MatchIndexedCtx(opt.Ctx, aug.tree, streams, &joinStats[ci])
	}
	if workers := min(opt.workers(), len(ordered)); workers <= 1 {
		for ci := range ordered {
			matchOne(ci)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ci := range idx {
					matchOne(ci)
				}
			}()
		}
		for ci := range ordered {
			idx <- ci
		}
		close(idx)
		wg.Wait()
	}
	var total twigjoin.JoinStats
	for _, js := range joinStats {
		total.Add(js)
	}
	opt.Joins.addJoin(total)
	tj.SetAttrInt("blocks_read", total.BlocksRead)
	tj.SetAttrInt("blocks_skipped", total.BlocksSkipped)
	for _, err := range errs {
		if err != nil {
			tj.SetError(err)
			tj.End()
			return nil, stats, err
		}
	}
	var out []string
	for ci, uri := range ordered {
		if matched[ci] {
			out = append(out, uri)
		}
	}
	tj.SetAttrInt("matched", int64(len(out)))
	tj.End()
	return out, stats, nil
}
