package kv

import (
	"reflect"
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
	if d.Len() != 3 || d.Items() != 3 {
		t.Fatalf("Len=%d Items=%d", d.Len(), d.Items())
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
