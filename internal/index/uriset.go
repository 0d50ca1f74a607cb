package index

import (
	"repro/internal/obs"
	"repro/internal/twigjoin"
)

// URI-set intersection for the LU/LUP look-ups and the candidate step of
// LUI/2LUPI. Every posting list is sorted by URI, so the intersection is one
// sorted merge: the list with the fewest rows drives, and every other list
// gallops forward to the driver's URI (PostingList.seek). When a list
// overshoots, the driver gallops to where it landed, so lists of very
// different lengths cost what the short one holds, not what the long one
// does. 2LUPI's reduction set enters as one more list. The output is sorted
// by construction, and each survivor comes with its first row in every
// list, which is where its posting is built from.

// JoinCounters are the obs counters the look-up kernels feed, resolved
// once at wiring time (see core's metrics resolution) and nil-safe
// throughout — an uninstrumented run pays one nil check per update.
type JoinCounters struct {
	// BlocksRead counts posting blocks whose payload was consulted by a
	// block-skipping join; BlocksSkipped counts blocks and probes resolved
	// on their summary headers alone.
	BlocksRead    *obs.Counter
	BlocksSkipped *obs.Counter
	// PostingsBuilt counts the postings look-ups built from posting lists:
	// one per key of each URI that survived a phase's intersection, unless
	// a cached list had built it already.
	PostingsBuilt *obs.Counter
}

// addJoin folds one join's block-level work into the counters.
func (j *JoinCounters) addJoin(js twigjoin.JoinStats) {
	if j == nil {
		return
	}
	j.BlocksRead.Add(js.BlocksRead)
	j.BlocksSkipped.Add(js.BlocksSkipped)
}

// addBuilt records n built postings.
func (j *JoinCounters) addBuilt(n int) {
	if j == nil {
		return
	}
	j.PostingsBuilt.Add(int64(n))
}

// uriList returns a list of presence rows over sorted, distinct URIs, in
// sc (the heap when sc is nil): a reduction set entering a merge.
func uriList(uris []string, sc *Scratch) *PostingList {
	l := sc.list()
	l.kind, l.rows, l.uris = URIPosting, sc.rowSlice(len(uris)), len(uris)
	for i, u := range uris {
		l.rows[i].uri = u
	}
	return l
}

// intersect returns the sorted URIs every list holds and, for the i-th of
// them, at[i*len(lists)+j] is the index of its first row in lists[j]. A nil
// list is empty. Both outputs are carved from sc, at the size the list with
// the fewest rows bounds them to; they are nil when no URI survives.
func intersect(lists []*PostingList, sc *Scratch) (uris []string, at []int32) {
	if len(lists) == 0 {
		return nil, nil
	}
	d := 0
	for j, l := range lists {
		if l.Len() == 0 {
			return nil, nil
		}
		if len(l.rows) < len(lists[d].rows) {
			d = j
		}
	}
	driver := lists[d]
	pos := take(&sc.ints, len(lists))
	uris = take(&sc.uris, driver.Len())[:0]
	at = take(&sc.ints, driver.Len()*len(lists))[:0]
	for i := 0; i < len(driver.rows); {
		uri := driver.rows[i].uri
		next := "" // the URI a list overshot to, when one did
		for j, l := range lists {
			if j == d {
				continue
			}
			p := l.seek(int(pos[j]), uri)
			if p == len(l.rows) {
				return survivors(uris, at)
			}
			pos[j] = int32(p)
			if u := l.rows[p].uri; u != uri {
				next = u
				break
			}
		}
		if next != "" {
			i = driver.seek(i, next)
			continue
		}
		pos[d] = int32(i)
		uris = append(uris, uri)
		at = append(at, pos...)
		i = driver.runEnd(i)
	}
	return survivors(uris, at)
}

// survivors returns intersect's outputs, nil when no URI survived.
func survivors(uris []string, at []int32) ([]string, []int32) {
	if len(uris) == 0 {
		return nil, nil
	}
	return uris, at
}
