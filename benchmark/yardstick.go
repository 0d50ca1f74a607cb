package main

import (
	"runtime"
	"sort"
	"time"
)

// The yardstick is how the benchmark reads the speed of the machine while it
// times the program. The reference box is a few cores of a shared host, and
// the same binary on the same input takes 15-40 % more processor time in some
// minutes than in others: the integer units keep their pace, the memory
// system does not (a pointer chase slows by 1.7x). No run of a length the
// gate allows averages over a state that lasts minutes, so every clock
// reading is divided by how much slower than usual the machine was when it
// was taken.
//
// A lap is a fixed piece of work of the benchmark's own with the program's
// appetite: it scans the tags of the first documents of the corpus, allocates
// a node, its strings and a child slice per element, and walks the tree once,
// so it misses the cache, feeds the collector and is held up by it the way a
// query or a build is. Laps run between the program's ops — after a request,
// after a slice of a build — for a tenth of the time the ops take, in the
// same heap and at the same moments. The speed factor of a stretch of the run
// (a round) is the mean lap time in it over refLap, and a clocked metric is
// what the clock read divided by the factor of the stretch it was read in:
// time of the reference box in its usual state. Over runs in which the time
// of the same requests varied by 1.4-1.7x, the factor followed it with
// r = 0.98 and elasticity 0.9-1.1, and the quotient varied by 1.08x. What was
// tried and did not follow it: a pointer chase, a byte scan, an integer loop
// and a tree built in a preallocated ring; laps run for a thirtieth of the
// time instead of a tenth; and laps run in a burst before and after a long op
// (they read the state of the heap the op leaves: 0.3 or 0.5 ms a lap,
// whatever the machine does). README.md, "The yardstick", has the numbers.
//
// Nothing of the program runs in a lap and no lap runs inside a timed op, so
// a change to the program does not move the yardstick, and what the laps
// allocate (the same on every lap) is subtracted from the run's allocations.

const (
	// yardDocs is how many documents a lap scans.
	yardDocs = 10
	// refLap is the lap time of the reference box in its usual state. It is a
	// unit, not a measurement: changing it rescales every clocked metric.
	refLap = 600 * time.Microsecond
	// yardShare is the time given to laps, as a share of the time the ops take.
	yardShare = 0.10
	// lapTrim is the share of a stretch's slowest laps left out of its mean:
	// a lap the host stalls for a tenth of a second says nothing about the
	// ops next to it.
	lapTrim = 0.05
)

type ynode struct {
	name, text string
	children   []*ynode
}

// yardstick runs and times laps. It is used from one goroutine.
type yardstick struct {
	docs  [][]byte
	times []time.Duration // of every lap so far
	sink  int
	// lapAlloc is the heap one lap allocates, measured at construction.
	lapAlloc uint64
}

func newYardstick(docs []doc) *yardstick {
	y := &yardstick{}
	for i := 0; i < yardDocs && i < len(docs); i++ {
		y.docs = append(y.docs, docs[i].Data)
	}
	// What a lap allocates is the same on every lap, so the run's allocation
	// count is cleared of the laps by arithmetic. ReadMemStats flushes the
	// allocator's caches: the difference is exact.
	const probe = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < probe; i++ {
		y.lap()
	}
	runtime.ReadMemStats(&m1)
	y.lapAlloc = (m1.TotalAlloc - m0.TotalAlloc) / probe
	y.times = y.times[:0]
	return y
}

// lap runs the fixed work once and returns the time it took.
func (y *yardstick) lap() time.Duration {
	start := time.Now()
	for _, data := range y.docs {
		y.sink += walkTree(tagTree(data))
	}
	d := time.Since(start)
	y.times = append(y.times, d)
	return d
}

// pacer hands out laps between the ops of one part of a run, so that the
// laps take yardShare of the time the ops take.
type pacer struct {
	y          *yardstick
	work, laps time.Duration
}

// after is called after an op that took d; it runs the laps that are due, at
// least one after the first op.
func (p *pacer) after(d time.Duration) {
	p.work += d
	for p.laps == 0 || float64(p.laps) < yardShare*float64(p.work) {
		p.laps += p.y.lap()
	}
}

// mark is a position in the yardstick's laps; two marks delimit a stretch.
func (y *yardstick) mark() int { return len(y.times) }

// stretch is the laps run during a part of the run.
type stretch []time.Duration

func (y *yardstick) since(mark int) stretch { return stretch(y.times[mark:]) }

// factor is how much slower than the reference the machine was over the
// stretch (above 1 is slower): the mean of its laps, the slowest lapTrim of
// them left out, over refLap. A stretch without laps has factor 1.
func (s stretch) factor() float64 {
	if len(s) == 0 {
		return 1
	}
	sorted := append([]time.Duration(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	kept := sorted[:len(sorted)-int(lapTrim*float64(len(sorted)))]
	var total time.Duration
	for _, d := range kept {
		total += d
	}
	return float64(total) / float64(len(kept)) / float64(refLap)
}

// tagTree builds the element tree of a document from its tags alone: no
// entities, no attributes, no checks. It is not the program's parser and
// shares no code with it.
func tagTree(data []byte) *ynode {
	root := &ynode{name: "#root"}
	stack := []*ynode{root}
	for i := 0; i < len(data); {
		if data[i] != '<' {
			j := i
			for j < len(data) && data[j] != '<' {
				j++
			}
			if j-i > 1 {
				stack[len(stack)-1].text = string(data[i:j])
			}
			i = j
			continue
		}
		j := i + 1
		for j < len(data) && data[j] != '>' {
			j++
		}
		tag := data[i+1 : j]
		switch {
		case len(tag) == 0 || tag[0] == '?' || tag[0] == '!':
		case tag[0] == '/':
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		default:
			k := 0
			for k < len(tag) && tag[k] != ' ' && tag[k] != '/' {
				k++
			}
			n := &ynode{name: string(tag[:k])}
			top := stack[len(stack)-1]
			top.children = append(top.children, n)
			if tag[len(tag)-1] != '/' {
				stack = append(stack, n)
			}
		}
		i = j + 1
	}
	return root
}

func walkTree(n *ynode) int {
	c := 1 + len(n.name) + len(n.text)
	for _, ch := range n.children {
		c += walkTree(ch)
	}
	return c
}
