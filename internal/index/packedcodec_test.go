package index

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cloud/kv"
	"repro/internal/pattern"
	"repro/internal/xmltree"
)

// decodeViaSet decodes one blob through DecodeIDSet, forcing the lazy
// blocked route when the blob supports it.
func decodeViaSet(t *testing.T, blob []byte) []xmltree.NodeID {
	t.Helper()
	set, ids, err := DecodeIDSet(blob, true)
	if err != nil {
		t.Fatalf("DecodeIDSet: %v", err)
	}
	if set == nil {
		return ids
	}
	all, err := set.All()
	if err != nil {
		t.Fatalf("Set.All: %v", err)
	}
	return all
}

// outlierIDs is genSortedIDs with every eighth post pushed out to 1<<28, so
// that the blocked writer's per-block negotiation keeps the varint payload.
func outlierIDs(n int, seed int64) []xmltree.NodeID {
	ids := genSortedIDs(n, seed)
	for i := 0; i < n; i += 8 {
		ids[i].Post = 1 << 28
	}
	return ids
}

// TestIDCodecDifferential pins decode equality across the two binary
// encodings of the same identifier set — blocked (on sets that pack and on
// sets that keep the varint payload) and the headerless stream — through
// both the eager and the lazy decode routes, across the widths and set sizes
// the block kernels specialize on.
func TestIDCodecDifferential(t *testing.T) {
	for _, n := range []int{1, 31, 32, 129, 1000} {
		for seed := int64(1); seed <= 3; seed++ {
			for shape, ids := range map[string][]xmltree.NodeID{
				"dense":   genSortedIDs(n, seed),
				"outlier": outlierIDs(n, seed),
			} {
				for name, blobs := range map[string][][]byte{
					"blocked": EncodeIDs(ids, true, 0),
					"stream":  EncodeIDsBinary(ids, 0),
				} {
					var eager, lazy []xmltree.NodeID
					for _, b := range blobs {
						eager = append(eager, decodeAllBinary(t, [][]byte{b})...)
						lazy = append(lazy, decodeViaSet(t, b)...)
					}
					if !idsEqual(eager, ids) {
						t.Fatalf("n=%d seed=%d %s %s: eager decode mismatch", n, seed, shape, name)
					}
					if !idsEqual(lazy, ids) {
						t.Fatalf("n=%d seed=%d %s %s: lazy decode mismatch", n, seed, shape, name)
					}
				}
			}
		}
	}
}

// TestPostingsBytesPackedCharge is the cache-accounting regression: a
// blocked posting is charged its actual payload bytes, whichever payload its
// blocks kept, and the charge must equal the documented formula exactly.
func TestPostingsBytesPackedCharge(t *testing.T) {
	k := cacheKey{table: "tbl", key: "eitem", kind: IDPosting}
	for _, ids := range [][]xmltree.NodeID{genSortedIDs(512, 9), outlierIDs(512, 9)} {
		set, rest, err := DecodeIDSet(EncodeIDs(ids, true, 0)[0], true)
		if err != nil || set == nil {
			t.Fatalf("DecodeIDSet: set=%v rest=%d err=%v", set, len(rest), err)
		}
		l := listOf(t, []kv.Item{{HashKey: k.key, RangeKey: "r", Attrs: []kv.Attr{
			{Name: "doc-1", Values: []kv.Value{EncodeIDs(ids, true, 0)[0]}},
		}}}, IDPosting, true)
		got, err := postingsBytes(k, l)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(len(k.table)+len(k.key)+1) +
			int64(len("doc-1")*2) +
			int64(len(ids))*12 +
			set.PayloadBytes() + int64(set.Blocks())*48 +
			48 // per-posting map slot overhead
		if got != want {
			t.Fatalf("postingsBytes = %d, want %d", got, want)
		}
	}
}

// pathVocab are raw step keys for the matcher differential, including keys
// whose escaped forms differ (embedded '/' and '%').
var pathVocab = []string{"ea", "eb", "ec", "ename", "adate 07/04", "w50%off", "w%2F"}

func randomSteps(r *rand.Rand, n int) []QueryStep {
	steps := make([]QueryStep, n)
	for i := range steps {
		axis := pattern.Child
		if r.Intn(2) == 0 {
			axis = pattern.Descendant
		}
		steps[i] = QueryStep{Axis: axis, Key: pathVocab[r.Intn(len(pathVocab))]}
	}
	return steps
}

func randomStoredPath(r *rand.Rand) string {
	var b strings.Builder
	depth := 1 + r.Intn(6)
	for i := 0; i < depth; i++ {
		b.WriteByte('/')
		b.WriteString(escapeComponent(pathVocab[r.Intn(len(pathVocab))]))
	}
	return b.String()
}

// TestPathMatcherAgreesWithMatchPath is the prefix-skip matcher
// differential: over random query paths and random stored path sets —
// plain values and front-coded blocks alike — PathMatcher.MatchValue must
// agree exactly with decoding and running MatchPath per path.
func TestPathMatcherAgreesWithMatchPath(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	hostile := []string{"", "/", "//", "/ea/", "ea/eb", "/ea//eb", "/%2F"}
	for trial := 0; trial < 400; trial++ {
		steps := randomSteps(r, 1+r.Intn(4))
		m := NewPathMatcher(steps)

		paths := make([]string, 0, 8)
		for i := 1 + r.Intn(7); i > 0; i-- {
			paths = append(paths, randomStoredPath(r))
		}
		if r.Intn(3) == 0 {
			paths = append(paths, hostile[r.Intn(len(hostile))])
		}

		for _, p := range paths {
			got, err := m.MatchValue([]byte(p))
			if err != nil {
				t.Fatalf("trial %d: MatchValue(%q): %v", trial, p, err)
			}
			if want := MatchPath(steps, p); got != want {
				t.Fatalf("trial %d: MatchValue(%q) = %v, MatchPath = %v (steps %v)",
					trial, p, got, want, steps)
			}
		}

		// Small caps force multi-block values, exercising the checkpoint
		// reset between blocks.
		maxValue := 1 << 20
		if r.Intn(2) == 0 {
			maxValue = 16 + r.Intn(64)
		}
		for _, block := range EncodePathsCompressed(paths, maxValue) {
			got, err := m.MatchValue(block)
			if err != nil {
				t.Fatalf("trial %d: MatchValue(block): %v", trial, err)
			}
			decoded, err := DecodePathValue(block)
			if err != nil {
				t.Fatalf("trial %d: DecodePathValue: %v", trial, err)
			}
			want := false
			for _, p := range decoded {
				if MatchPath(steps, p) {
					want = true
					break
				}
			}
			if got != want {
				t.Fatalf("trial %d: block MatchValue = %v, per-path MatchPath = %v (steps %v, paths %q)",
					trial, got, want, steps, decoded)
			}
		}
	}
}

// TestPathMatcherFallback covers the two NFA escape hatches: the empty
// query path and one too deep for the 63-step state mask both take the
// decode-and-MatchPath route and still agree with it.
func TestPathMatcherFallback(t *testing.T) {
	deep := make([]QueryStep, 70)
	for i := range deep {
		deep[i] = QueryStep{Axis: pattern.Child, Key: "ea"}
	}
	var deepPath strings.Builder
	for i := 0; i < 70; i++ {
		deepPath.WriteString("/ea")
	}
	for _, tc := range []struct {
		steps []QueryStep
		path  string
		want  bool
	}{
		{nil, "/ea", false},
		{deep, deepPath.String(), true},
		{deep, "/ea/eb", false},
	} {
		m := NewPathMatcher(tc.steps)
		for _, v := range [][]byte{
			[]byte(tc.path),
			EncodePathsCompressed([]string{tc.path}, 0)[0],
		} {
			got, err := m.MatchValue(v)
			if err != nil {
				t.Fatalf("MatchValue: %v", err)
			}
			if got != tc.want {
				t.Errorf("MatchValue(%d steps, %q) = %v, want %v", len(tc.steps), tc.path, got, tc.want)
			}
		}
	}
}
