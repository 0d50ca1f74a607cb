package xmltree

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// FuzzRecycledParseMatchesFresh parses input a under a projection drawn from
// it, releases the document and parses input b on the memory it gave back:
// a's must read as empty, b's first text copied into its slab must land in
// a's largest text chunk when that has room for it, and b's document must
// be the one a parse into fresh memory builds, node for node and index for
// index. A second arm parses b on the scratch
// that parsed a, whose symbols' guesses a trained: b must get the verdict,
// the error text and the nodes of a parse on a fresh scratch. The seeds are
// the corpus of FuzzParseDifferential, each paired with the next.
func FuzzRecycledParseMatchesFresh(f *testing.F) {
	seeds := corpusSeeds(f, "FuzzParseDifferential")
	for i := range seeds {
		f.Add(seeds[i], seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkRecycled(t, a, b)
		checkTrained(t, a, b)
	})
}

// corpusSeeds reads the inputs of a fuzz target's checked-in corpus, files
// of one []byte value each.
func corpusSeeds(tb testing.TB, target string) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no corpus for %s: %v", target, err)
	}
	var seeds [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(value, "[]byte(")
		if header != "go test fuzz v1" || !ok || !strings.HasSuffix(quoted, ")") {
			tb.Fatalf("%s is not one []byte value", name)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// drawnProjection draws a projection from the names of data when it parses,
// and returns the empty one when it does not.
func drawnProjection(data []byte) *Projection {
	full, err := Parse("d.xml", data)
	if err != nil {
		return &Projection{}
	}
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	return drawProjection(rng, full, 1+rng.Intn(4))
}

// dumpBuilt renders what the recycled-memory contract compares of a
// document, projected or not: every built node's kind, label, text,
// identifier, parent and children (by pre rank) and, for an element, its
// Content; then the nodes of each label in NodesByLabel, in order.
func dumpBuilt(d *Document) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d bytes, %d of %d nodes, root %v\n", d.URI, d.SourceBytes, d.NodeCount(), d.NodesScanned(), d.Root != nil)
	var labels []string
	seen := map[string]bool{}
	for _, n := range d.Nodes() {
		parent := int32(0)
		if n.Parent != nil {
			parent = n.Parent.ID.Pre
		}
		fmt.Fprintf(&b, "%s %q %q %v parent=%d children=[", n.Kind, n.Label, n.Text, n.ID, parent)
		for _, c := range n.Children {
			fmt.Fprintf(&b, " %d", c.ID.Pre)
		}
		b.WriteString(" ]")
		if n.Kind == Element {
			fmt.Fprintf(&b, " %q", n.Content())
		}
		b.WriteString("\n")
		if !seen[n.Label] {
			seen[n.Label] = true
			labels = append(labels, n.Label)
		}
	}
	for _, l := range labels {
		fmt.Fprintf(&b, "%q:", l)
		for _, n := range d.NodesByLabel(l) {
			fmt.Fprintf(&b, " %d", n.ID.Pre)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// checkRecycled is the contract of FuzzRecycledParseMatchesFresh on one pair
// of inputs. It reports whether b's first text copied into its slab was
// shown to lie in a text chunk a gave back.
func checkRecycled(t *testing.T, a, b []byte) (reusedText bool) {
	var mem *arena
	pa, errA := parseWith(new(scratch), new(arena), "a.xml", a, drawnProjection(a))
	if errA == nil {
		var labels []string
		for _, n := range pa.Nodes() {
			labels = append(labels, n.Label)
		}
		// Empty the pool's slot for this P, so that the arena the release
		// puts there is the next one handed out.
		defer arenaPool.Put(arenaPool.Get())
		mem = pa.mem
		pa.Release()
		if pa.Root != nil || pa.NodeCount() != 0 || len(pa.Nodes()) != 0 || pa.NodesScanned() != 0 {
			t.Fatalf("a released document reads %d of %d nodes, root %v", pa.NodeCount(), pa.NodesScanned(), pa.Root)
		}
		for _, l := range labels {
			if pa.NodesByLabel(l) != nil {
				t.Fatalf("a released document has nodes labelled %q", l)
			}
		}
		if pa.URI != "a.xml" || pa.SourceBytes != int64(len(a)) {
			t.Fatalf("a released document is %q of %d bytes", pa.URI, pa.SourceBytes)
		}
		pa.Release()
	}
	// What a released (or failed) parse gave back is the pool's newest
	// arena; parse b on it. The text chunks a's arena kept are its free
	// ones now, the largest first.
	recycled := arenaPool.Get().(*arena)
	var largest []byte
	if recycled == mem && len(mem.text.list) > 0 {
		largest = mem.text.list[0][:cap(mem.text.list[0])]
	}
	projB := drawnProjection(b)
	pb, errB := parseWith(new(scratch), recycled, "b.xml", b, projB)
	fresh, errF := parseWith(new(scratch), new(arena), "b.xml", b, projB)
	if fmt.Sprint(errB) != fmt.Sprint(errF) {
		t.Fatalf("on recycled memory the parse says %v, on fresh memory %v", errB, errF)
	}
	if errB != nil {
		return false
	}
	if got, want := dumpBuilt(pb), dumpBuilt(fresh); got != want {
		t.Fatalf("b parsed on recycled memory\n%s\nb parsed on fresh memory\n%s\na %q\nb %q", got, want, a, b)
	}
	// The first text b copied into its slab took the largest free chunk
	// with room for it: a's largest, if that has room. Copies come in pre
	// order, and a text the scanner built (references decoded, pieces
	// joined) lies in no chunk.
	used := recycled.text.list[:recycled.text.used]
	for _, n := range pb.Nodes() {
		if !slices.ContainsFunc(used, func(c []byte) bool { return within(n.Text, c[:cap(c)]) }) {
			continue
		}
		if len(n.Text) <= len(largest) {
			if !within(n.Text, largest) {
				t.Fatalf("b's first copied text %q is not in the %d-byte text chunk a gave back\na %q\nb %q", n.Text, len(largest), a, b)
			}
			reusedText = true
		}
		break
	}
	pb.Release()
	fresh.Release()
	return reusedText
}

// within reports whether the bytes of the non-empty s lie in chunk.
func within(s string, chunk []byte) bool {
	if s == "" || len(chunk) == 0 {
		return false
	}
	at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	start := uintptr(unsafe.Pointer(unsafe.SliceData(chunk)))
	return at >= start && at+uintptr(len(s)) <= start+uintptr(len(chunk))
}

// checkTrained is the second arm of FuzzRecycledParseMatchesFresh: b parsed
// on the scratch that parsed a, each under a projection drawn from it,
// against b parsed on a fresh scratch.
func checkTrained(t *testing.T, a, b []byte) {
	s := new(scratch)
	parseWith(s, new(arena), "a.xml", a, drawnProjection(a))
	projB := drawnProjection(b)
	trained, errT := parseWith(s, new(arena), "b.xml", b, projB)
	fresh, errF := parseWith(new(scratch), new(arena), "b.xml", b, projB)
	if fmt.Sprint(errT) != fmt.Sprint(errF) {
		t.Fatalf("on a scratch a trained the parse says %v, on a fresh one %v\na %q\nb %q", errT, errF, a, b)
	}
	if errT == nil {
		if got, want := dumpBuilt(trained), dumpBuilt(fresh); got != want {
			t.Fatalf("b parsed on a scratch a trained\n%s\nb parsed on a fresh one\n%s\na %q\nb %q", got, want, a, b)
		}
	}
}

// TestRecycledParseMatchesFresh runs the fuzz target's contract, both arms,
// over the gate's XMark documents, each parsed on the memory, and on the
// scratch, of the one before it.
func TestRecycledParseMatchesFresh(t *testing.T) {
	docs := benchDocs()
	reused := 0
	for i := range docs {
		if checkRecycled(t, docs[i].Data, docs[(i+1)%len(docs)].Data) {
			reused++
		}
		checkTrained(t, docs[i].Data, docs[(i+1)%len(docs)].Data)
	}
	t.Logf("%d of %d parses copied text into a chunk the document before gave back", reused, len(docs))
	if reused == 0 && !raceEnabled {
		t.Fatalf("no parse of %d copied its text into a chunk the document before it gave back", len(docs))
	}
}

// recycledParseBytes bounds what a parse on the memory a released document
// gave back allocates. That is its Document header and nothing else: 112
// bytes measured (Go 1.24, linux/amd64), against 33.6 KB when the documents
// are never released. The bound leaves room for the pool to lose an arena
// to the collector once in the 200 parses measured.
const recycledParseBytes = 512

// TestRecycledParseAllocations holds a projected parse on released memory
// to recycledParseBytes.
func TestRecycledParseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes arenaPool and scratchPool drop what is put back")
	}
	// The 16 KB document of the gate's corpus the q6 projection builds
	// most nodes of.
	proj := scanProjections[0]
	var data []byte
	most := -1
	for _, d := range benchDocs() {
		pd, err := ParseProjected(d.URI, d.Data, proj)
		if err != nil {
			t.Fatal(err)
		}
		if pd.NodeCount() > most {
			data, most = d.Data, pd.NodeCount()
		}
	}
	const runs = 200
	var sink []*Document
	bytesPerParse := func(release bool) uint64 {
		parse := func() {
			d, err := ParseProjected("d.xml", data, proj)
			if err != nil {
				t.Fatal(err)
			}
			if release {
				d.Release()
			} else {
				sink = append(sink, d)
			}
		}
		for i := 0; i < 3; i++ {
			parse()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			parse()
		}
		runtime.ReadMemStats(&after)
		sink = sink[:0]
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	fresh, recycled := bytesPerParse(false), bytesPerParse(true)
	t.Logf("%d nodes built of a %d-byte document: %d bytes a parse kept, %d released", most, len(data), fresh, recycled)
	if recycled > recycledParseBytes {
		t.Fatalf("a parse on released memory allocates %d bytes, one that keeps its documents %d: want at most %d", recycled, fresh, recycledParseBytes)
	}
}
