// Package meter records the consumption of simulated cloud resources.
//
// The paper's cost study (Sections 7-8) bills an application for every API
// request issued against a cloud service, for the bytes it stores, for the
// hours its virtual machines run, and for the bytes it transfers out of the
// cloud. The Ledger type accumulates exactly those quantities; the pricing
// package turns a Usage snapshot into dollars.
//
// Every simulated service (s3, dynamodb, simpledb, sqs) records into the
// ledger it was constructed with. Callers measure a phase (for example "the
// evaluation of query q3 under strategy LUP") by snapshotting the ledger
// before and after and subtracting.
package meter

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Op identifies a metered operation, e.g. {Service: "dynamodb", Name: "get"}.
type Op struct {
	Service string
	Name    string
}

func (o Op) String() string { return o.Service + "." + o.Name }

// Counts aggregates the activity recorded for one operation.
type Counts struct {
	// Calls is the number of API requests issued (a batch call counts as
	// one request).
	Calls int64
	// Units is the number of logical work units consumed, e.g. items
	// written by a batch put, or key-value capacity units. Services for
	// which the distinction is meaningless record Units == Calls.
	Units int64
	// Bytes is the payload volume moved by the operation.
	Bytes int64
}

func (c Counts) add(d Counts) Counts {
	return Counts{c.Calls + d.Calls, c.Units + d.Units, c.Bytes + d.Bytes}
}

func (c Counts) sub(d Counts) Counts {
	return Counts{c.Calls - d.Calls, c.Units - d.Units, c.Bytes - d.Bytes}
}

// Usage is an immutable snapshot of a Ledger.
type Usage struct {
	ops             map[Op]Counts
	instanceSeconds map[string]float64 // by instance type name
	egressBytes     int64
}

// Ledger accumulates resource consumption. It is safe for concurrent use.
// The zero value is not usable; use NewLedger.
//
// Internally the ledger keeps dense parallel tables (an op registry plus a
// counts slice) rather than maps: the set of distinct operations is tiny
// and append-only, and the dense layout lets Compact produce a
// point-in-time reading with two slice copies — cheap enough to take twice
// per tracing span on the query hot path.
type Ledger struct {
	mu        sync.Mutex
	opIdx     map[Op]int
	ops       []Op
	counts    []Counts
	instIdx   map[string]int
	instTypes []string
	instSecs  []float64
	egress    int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		opIdx:   make(map[Op]int),
		instIdx: make(map[string]int),
	}
}

// Record adds one metered operation to the ledger.
func (l *Ledger) Record(service, op string, calls, units, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := Op{service, op}
	i, ok := l.opIdx[k]
	if !ok {
		i = len(l.ops)
		l.opIdx[k] = i
		l.ops = append(l.ops, k)
		l.counts = append(l.counts, Counts{})
	}
	l.counts[i] = l.counts[i].add(Counts{calls, units, bytes})
}

// AddInstanceSeconds bills modeled busy time of a virtual machine of the
// given type (e.g. "l", "xl").
func (l *Ledger) AddInstanceSeconds(instanceType string, seconds float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.instIdx[instanceType]
	if !ok {
		i = len(l.instTypes)
		l.instIdx[instanceType] = i
		l.instTypes = append(l.instTypes, instanceType)
		l.instSecs = append(l.instSecs, 0)
	}
	l.instSecs[i] += seconds
}

// AddEgress records bytes transferred out of the cloud.
func (l *Ledger) AddEgress(bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.egress += bytes
}

// Snapshot returns a copy of the current usage.
func (l *Ledger) Snapshot() Usage {
	l.mu.Lock()
	defer l.mu.Unlock()
	u := Usage{
		ops:             make(map[Op]Counts, len(l.ops)),
		instanceSeconds: make(map[string]float64, len(l.instTypes)),
		egressBytes:     l.egress,
	}
	for i, k := range l.ops {
		u.ops[k] = l.counts[i]
	}
	for i, t := range l.instTypes {
		u.instanceSeconds[t] = l.instSecs[i]
	}
	return u
}

// Reset clears the ledger.
func (l *Ledger) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.opIdx = make(map[Op]int)
	l.ops, l.counts = nil, nil
	l.instIdx = make(map[string]int)
	l.instTypes, l.instSecs = nil, nil
	l.egress = 0
}

// Compact is a cheap point-in-time reading of a Ledger, made for
// high-frequency before/after diffs (the obs tracer takes two per span).
// It copies the small dense tables instead of building maps; the op and
// instance-type name slices are shared immutable prefixes of the ledger's
// internal registries (the first n entries never change once written, so
// sharing them is safe even as the ledger keeps appending).
type Compact struct {
	ops       []Op
	counts    []Counts
	instTypes []string
	instSecs  []float64
	egress    int64
}

// CompactInto returns the current reading, reusing prev's backing arrays
// when they are large enough, for callers that take readings in a loop (the
// obs tracer recycles them through a pool). A zero prev takes a fresh one.
func (l *Ledger) CompactInto(prev Compact) Compact {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Compact{
		ops:       l.ops[:len(l.ops):len(l.ops)],
		counts:    append(prev.counts[:0], l.counts...),
		instTypes: l.instTypes[:len(l.instTypes):len(l.instTypes)],
		instSecs:  append(prev.instSecs[:0], l.instSecs...),
		egress:    l.egress,
	}
}

// SubSince returns the activity since prev, an earlier compact reading of
// this ledger, without materialising a second reading: the non-zero op
// deltas in first-recorded order, the non-zero per-type instance seconds,
// and the egress delta.
func (l *Ledger) SubSince(prev Compact) (ops []OpDelta, inst []TypeSeconds, egress int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, ct := range l.counts {
		var p Counts
		if i < len(prev.counts) {
			p = prev.counts[i]
		}
		if d := ct.sub(p); d != (Counts{}) {
			if ops == nil {
				ops = make([]OpDelta, 0, len(l.counts)-i)
			}
			ops = append(ops, OpDelta{l.ops[i], d})
		}
	}
	for i, s := range l.instSecs {
		var p float64
		if i < len(prev.instSecs) {
			p = prev.instSecs[i]
		}
		if d := s - p; d != 0 {
			if inst == nil {
				inst = make([]TypeSeconds, 0, len(l.instSecs)-i)
			}
			inst = append(inst, TypeSeconds{l.instTypes[i], d})
		}
	}
	return ops, inst, l.egress - prev.egress
}

// OpDelta is one operation's activity between two compact readings.
type OpDelta struct {
	Op     Op
	Counts Counts
}

// TypeSeconds is one instance type's billed busy time between two compact
// readings.
type TypeSeconds struct {
	Type    string
	Seconds float64
}

func (u Usage) clone() Usage {
	c := Usage{
		ops:             make(map[Op]Counts, len(u.ops)),
		instanceSeconds: make(map[string]float64, len(u.instanceSeconds)),
		egressBytes:     u.egressBytes,
	}
	for k, v := range u.ops {
		c.ops[k] = v
	}
	for k, v := range u.instanceSeconds {
		c.instanceSeconds[k] = v
	}
	return c
}

// Sub returns the usage delta u - prev. It is the usual way to isolate the
// consumption of one phase.
func (u Usage) Sub(prev Usage) Usage {
	d := Usage{
		ops:             make(map[Op]Counts),
		instanceSeconds: make(map[string]float64),
		egressBytes:     u.egressBytes - prev.egressBytes,
	}
	for k, v := range u.ops {
		if w, ok := prev.ops[k]; ok {
			v = v.sub(w)
		}
		if v != (Counts{}) {
			d.ops[k] = v
		}
	}
	for k, v := range prev.ops {
		if _, ok := u.ops[k]; !ok {
			d.ops[k] = Counts{}.sub(v)
		}
	}
	for k, v := range u.instanceSeconds {
		d.instanceSeconds[k] = v - prev.instanceSeconds[k]
	}
	for k, v := range prev.instanceSeconds {
		if _, ok := u.instanceSeconds[k]; !ok {
			d.instanceSeconds[k] = -v
		}
	}
	return d
}

// Add returns the combined usage u + other.
func (u Usage) Add(other Usage) Usage {
	s := u.clone()
	for k, v := range other.ops {
		s.ops[k] = s.ops[k].add(v)
	}
	for k, v := range other.instanceSeconds {
		s.instanceSeconds[k] += v
	}
	s.egressBytes += other.egressBytes
	return s
}

// Get returns the counts recorded for one operation.
func (u Usage) Get(service, op string) Counts {
	return u.ops[Op{service, op}]
}

// ServiceCalls sums the Calls of every operation of the given service.
func (u Usage) ServiceCalls(service string) int64 {
	var n int64
	for k, v := range u.ops {
		if k.Service == service {
			n += v.Calls
		}
	}
	return n
}

// Ops returns the recorded operations in deterministic order.
func (u Usage) Ops() []Op {
	ops := make([]Op, 0, len(u.ops))
	for k := range u.ops {
		ops = append(ops, k)
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Service != ops[j].Service {
			return ops[i].Service < ops[j].Service
		}
		return ops[i].Name < ops[j].Name
	})
	return ops
}

// InstanceSeconds reports the billed busy seconds for an instance type.
func (u Usage) InstanceSeconds(instanceType string) float64 {
	return u.instanceSeconds[instanceType]
}

// InstanceTypes returns the instance types with billed time, sorted.
func (u Usage) InstanceTypes() []string {
	ts := make([]string, 0, len(u.instanceSeconds))
	for k := range u.instanceSeconds {
		ts = append(ts, k)
	}
	sort.Strings(ts)
	return ts
}

// EgressBytes reports bytes transferred out of the cloud.
func (u Usage) EgressBytes() int64 { return u.egressBytes }

// String renders the usage as a human-readable multi-line report.
func (u Usage) String() string {
	var b strings.Builder
	for _, op := range u.Ops() {
		c := u.ops[op]
		fmt.Fprintf(&b, "%-24s calls=%-8d units=%-8d bytes=%d\n", op, c.Calls, c.Units, c.Bytes)
	}
	for _, t := range u.InstanceTypes() {
		fmt.Fprintf(&b, "ec2.%-20s seconds=%.1f\n", t, u.instanceSeconds[t])
	}
	if u.egressBytes != 0 {
		fmt.Fprintf(&b, "%-24s bytes=%d\n", "net.egress", u.egressBytes)
	}
	return b.String()
}
