package kv

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func it(hash, rng, owner, val string) Item {
	return Item{HashKey: hash, RangeKey: rng, Attrs: []Attr{{Name: owner, Values: []Value{Value(val)}}}}
}

func TestDeltaCaptureVersions(t *testing.T) {
	d := NewDelta()
	a1 := []Item{it("k", "r1", "a.xml", "v1")}
	a2 := []Item{it("k", "r2", "a.xml", "v2")}
	d.Put("ids", "k", "a.xml", 1, a1)
	d.Put("ids", "k", "a.xml", 3, a2)
	d.Tombstone("ids", "k", "b.xml", 2, []Item{it("k", "r9", "b.xml", "old")})

	// Version 0: nothing visible.
	if ov := d.Capture("ids", []string{"k"}, 0); ov != nil {
		t.Fatalf("capture at 0 = %+v, want nil", ov)
	}
	// Version 1: first replace only.
	ov := d.Capture("ids", []string{"k"}, 1)["k"]
	if !reflect.DeepEqual(ov.Replaces["a.xml"], a1) || ov.Tombstones != nil || ov.Stamp != 1 {
		t.Fatalf("capture at 1 = %+v", ov)
	}
	// Version 2: replace plus tombstone; tombstone must not move the stamp.
	ov = d.Capture("ids", []string{"k"}, 2)["k"]
	if len(ov.Tombstones["b.xml"]) != 1 || ov.Stamp != 1 {
		t.Fatalf("capture at 2 = %+v", ov)
	}
	// Version 3: latest replace wins.
	ov = d.Capture("ids", []string{"k"}, 3)["k"]
	if !reflect.DeepEqual(ov.Replaces["a.xml"], a2) || ov.Stamp != 3 {
		t.Fatalf("capture at 3 = %+v", ov)
	}
	// Unknown key and table are absent.
	if got := d.Capture("ids", []string{"other"}, 3); got != nil {
		t.Fatalf("unknown key captured %+v", got)
	}
	if got := d.Capture("paths", []string{"k"}, 3); got != nil {
		t.Fatalf("unknown table captured %+v", got)
	}
	if d.Len() != 3 {
		t.Fatalf("Len=%d", d.Len())
	}
}

func TestDeltaFoldRetiresAndStamps(t *testing.T) {
	d := NewDelta()
	d.Put("ids", "k", "a.xml", 1, []Item{it("k", "r1", "a.xml", "v1")})
	d.Put("ids", "k", "a.xml", 4, []Item{it("k", "r2", "a.xml", "v2")})
	d.Tombstone("ids", "k2", "b.xml", 2, []Item{it("k2", "r3", "b.xml", "old")})

	units := d.Pending(2)
	if len(units) != 2 {
		t.Fatalf("pending at 2: %d units, want 2", len(units))
	}
	// Deterministic order: (ids,k,a.xml) then (ids,k2,b.xml).
	if units[0].HashKey != "k" || units[1].HashKey != "k2" {
		t.Fatalf("unit order: %+v", units)
	}
	if units[0].Entry.Version != 1 || units[1].Entry.Tombstone != true {
		t.Fatalf("units: %+v", units)
	}
	d.Commit(units)

	// The v4 replace survives; the folded base and stamp advanced.
	ov := d.Capture("ids", []string{"k"}, 4)["k"]
	if ov.Stamp != 4 || len(ov.Replaces["a.xml"]) != 1 || ov.Replaces["a.xml"][0].RangeKey != "r2" {
		t.Fatalf("post-fold capture = %+v", ov)
	}
	// A pinned reader below the surviving entry sees only the fold stamp.
	ov = d.Capture("ids", []string{"k"}, 2)["k"]
	if ov.Stamp != 1 || ov.Replaces != nil {
		t.Fatalf("pinned capture after fold = %+v", ov)
	}
	// The tombstoned key keeps a stamp so stale caches cannot resurrect it:
	// the folded version, above one retired tombstone.
	ov = d.Capture("ids", []string{"k2"}, 4)["k2"]
	if ov.Stamp != 1<<stampVersionBits|2 || ov.Replaces != nil || ov.Tombstones != nil {
		t.Fatalf("tombstoned key capture = %+v", ov)
	}

	// Fold the rest: a later fold's base is the previous fold's items.
	units = d.Pending(4)
	if len(units) != 1 || units[0].Entry.Version != 4 {
		t.Fatalf("pending at 4: %+v", units)
	}
	if len(units[0].Base) != 1 || units[0].Base[0].RangeKey != "r1" {
		t.Fatalf("fold base must be the previously folded items: %+v", units[0].Base)
	}
	d.Commit(units)
	if d.Len() != 0 {
		t.Fatalf("entries remain after full fold: %d", d.Len())
	}
	if ov := d.Capture("ids", []string{"k"}, 9)["k"]; ov.Stamp != 4 {
		t.Fatalf("stamp after full fold = %+v", ov)
	}
}

// A fold that retires a tombstone must leave the key with a stamp no reader
// was handed while the tombstone was live. The case a version alone gets
// wrong: owner b is removed at 2 and owner c, new to the key, arrives at 3.
// A reader at 3 is handed the stamp of c's entry and caches postings that
// still hold b's items (the tombstone is subtracted after the cache). The
// fold of both entries deletes b's items and used to leave the stamp at 3.
func TestDeltaTombstoneFoldStampIsFresh(t *testing.T) {
	d := NewDelta()
	d.Put("ids", "k", "a.xml", 1, []Item{it("k", "r1", "a.xml", "v1")})
	d.Put("ids", "k", "b.xml", 1, []Item{it("k", "r2", "b.xml", "v1")})
	d.Commit(d.Pending(1))

	handed := map[uint64]string{}
	hand := func(when string, ver uint64) {
		t.Helper()
		s := d.Capture("ids", []string{"k"}, ver)["k"].Stamp
		if prev, ok := handed[s]; ok {
			t.Fatalf("%s (version %d) is handed stamp %#x again, first handed %s", when, ver, s, prev)
		}
		handed[s] = when
	}
	hand("after the first fold", 1)
	d.Tombstone("ids", "k", "b.xml", 2, []Item{it("k", "r2", "b.xml", "v1")})
	if s := d.Capture("ids", []string{"k"}, 2)["k"].Stamp; handed[s] == "" {
		t.Fatalf("a live tombstone moved the stamp to %#x", s)
	}
	d.Put("ids", "k", "c.xml", 3, []Item{it("k", "r3", "c.xml", "v1")})
	hand("with the tombstone and c's entry live", 3)

	d.Commit(d.Pending(3))
	if d.Len() != 0 {
		t.Fatalf("%d entries left after the fold", d.Len())
	}
	hand("after the fold that retired the tombstone", 3)

	// The stamp still follows versions above the retired tombstones: a
	// later entry moves it, and so does the fold of a second tombstone
	// even under an unfolded newer entry.
	d.Put("ids", "k", "a.xml", 4, []Item{it("k", "r1", "a.xml", "v2")})
	hand("with a's second entry live", 4)
	d.Tombstone("ids", "k", "c.xml", 5, []Item{it("k", "r3", "c.xml", "v1")})
	d.Put("ids", "k", "e.xml", 6, []Item{it("k", "r4", "e.xml", "v1")})
	hand("with e's entry live", 6)
	d.Commit(d.Pending(5))
	hand("after the second tombstone folded under e's entry", 6)
}

// Each half of a stamp has 32 bits; a version or a count of retired
// tombstones that needs more must not wrap into a stamp handed out before.
func TestDeltaStampOverflowPanics(t *testing.T) {
	for name, fill := range map[string]func(d *Delta){
		"version": func(d *Delta) { d.Put("ids", "k", "a.xml", 1<<stampVersionBits, nil) },
		"retired": func(d *Delta) {
			d.Put("ids", "k", "a.xml", 1, nil)
			d.keys[tableKey{"ids", "k"}].retired = 1 << (64 - stampVersionBits)
		},
	} {
		t.Run(name, func(t *testing.T) {
			d := NewDelta()
			fill(d)
			defer func() {
				if recover() == nil {
					t.Fatal("Capture handed out a wrapped stamp")
				}
			}()
			d.Capture("ids", []string{"k"}, 1<<stampVersionBits)
		})
	}
}

// fullWalk is the fold work Pending and Len used to find by walking every
// cell ever written, kept as their oracle.
func fullWalk(d *Delta, horizon uint64) (units []FoldUnit, entries int) {
	for tk, c := range d.keys {
		for owner, es := range c.owners {
			entries += len(es)
			latest := latestAt(es, horizon)
			if latest == nil {
				continue
			}
			units = append(units, FoldUnit{
				Table: tk.Table, HashKey: tk.HashKey, Owner: owner,
				Entry: *latest, Base: c.folded[owner], retire: latest.Version,
			})
		}
	}
	sort.Slice(units, func(i, j int) bool {
		a, b := units[i], units[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.HashKey != b.HashKey {
			return a.HashKey < b.HashKey
		}
		return a.Owner < b.Owner
	})
	return units, entries
}

// Pending and Len walk only the live cells; over random sequences of puts,
// tombstones and commits of all or part of a pass they must agree with a
// walk over every cell, and the live list must hold exactly the cells with
// entries, each once.
func TestDeltaPendingMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tables := []string{"ids", "paths"}
	for round := 0; round < 50; round++ {
		d := NewDelta()
		var ver uint64
		for step := 0; step < 200; step++ {
			tbl, key := tables[rng.Intn(2)], fmt.Sprintf("k%d", rng.Intn(6))
			owner := fmt.Sprintf("d%d.xml", rng.Intn(3))
			switch op := rng.Intn(10); {
			case op < 5:
				ver++
				d.Put(tbl, key, owner, ver, []Item{it(key, fmt.Sprintf("r%d", rng.Intn(4)), owner, fmt.Sprint(ver))})
			case op < 7:
				ver++
				d.Tombstone(tbl, key, owner, ver, []Item{it(key, "r0", owner, "old")})
			default:
				horizon := uint64(rng.Int63n(int64(ver) + 1))
				units := d.Pending(horizon)
				want, _ := fullWalk(d, horizon)
				if (len(units) > 0 || len(want) > 0) && !reflect.DeepEqual(units, want) {
					t.Fatalf("round %d step %d: Pending(%d) = %+v, full walk %+v", round, step, horizon, units, want)
				}
				if op == 9 && len(units) > 0 {
					units = units[:rng.Intn(len(units))] // a pass that commits part of its work
				}
				d.Commit(units)
			}
			if _, entries := fullWalk(d, 0); d.Len() != entries {
				t.Fatalf("round %d step %d: Len = %d, full walk %d", round, step, d.Len(), entries)
			}
			listed := map[*deltaCell]int{}
			for _, c := range d.live {
				listed[c]++
				if !c.inLive || listed[c] > 1 {
					t.Fatalf("round %d step %d: cell %v listed %d times, flag %v", round, step, c.key, listed[c], c.inLive)
				}
			}
			for tk, c := range d.keys {
				if (len(c.owners) > 0) != (listed[c] == 1) {
					t.Fatalf("round %d step %d: cell %v with %d owners listed %d times", round, step, tk, len(c.owners), listed[c])
				}
			}
		}
	}
}
