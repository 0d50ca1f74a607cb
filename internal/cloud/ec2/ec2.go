// Package ec2 simulates Amazon Elastic Compute Cloud instances, the virtual
// machines that run the warehouse's indexing module and query processor.
//
// The paper uses two standard instance types (Section 8.1):
//
//   - large (l): 7.5 GB RAM, 2 virtual cores with 2 EC2 Compute Units each;
//   - extra large (xl): 15 GB RAM, 4 virtual cores with 2 ECU each;
//
// where one ECU is the CPU capacity of a 1.0-1.2 GHz 2007 Xeon.
//
// A simulated instance carries a vtime.Timeline with one lane per core.
// Work is expressed as modeled durations (computed from bytes processed and
// a throughput per ECU) and scheduled on the least-loaded lane, which models
// the multi-threading the paper relies on for intra-machine parallelism.
// Instance busy time is billed per fractional hour at the type's rate
// (VM$h of Table 3).
package ec2

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/meter"
	"repro/internal/vtime"
)

// InstanceType describes a purchasable machine configuration.
type InstanceType struct {
	Name       string
	Cores      int
	ECUPerCore float64
	RAMBytes   int64
}

// The two standard instance types used in the paper's experiments.
var (
	Large = InstanceType{Name: "l", Cores: 2, ECUPerCore: 2, RAMBytes: 7.5 * (1 << 30)}
	XL    = InstanceType{Name: "xl", Cores: 4, ECUPerCore: 2, RAMBytes: 15 * (1 << 30)}
)

// TypeByName resolves "l" or "xl".
func TypeByName(name string) (InstanceType, error) {
	switch name {
	case Large.Name:
		return Large, nil
	case XL.Name:
		return XL, nil
	}
	return InstanceType{}, fmt.Errorf("ec2: unknown instance type %q", name)
}

// Instance is a launched virtual machine.
type Instance struct {
	ID   string
	Type InstanceType
	// TL is the instance's modeled timeline, one lane per core.
	TL *vtime.Timeline

	ledger *meter.Ledger

	mu     sync.Mutex
	billed time.Duration // portion of TL already billed
}

var launchSeq struct {
	mu sync.Mutex
	n  int
}

// Launch starts an instance of the given type, billing into ledger.
func Launch(ledger *meter.Ledger, typ InstanceType) *Instance {
	if ledger == nil {
		panic("ec2: ledger is required")
	}
	launchSeq.mu.Lock()
	launchSeq.n++
	id := fmt.Sprintf("i-%s-%04d", typ.Name, launchSeq.n)
	launchSeq.mu.Unlock()
	return &Instance{ID: id, Type: typ, TL: vtime.New(typ.Cores), ledger: ledger}
}

// LaunchFleet starts n identical instances.
func LaunchFleet(ledger *meter.Ledger, typ InstanceType, n int) []*Instance {
	fleet := make([]*Instance, n)
	for i := range fleet {
		fleet[i] = Launch(ledger, typ)
	}
	return fleet
}

// ComputeDuration converts a volume of bytes to process into a modeled
// duration on one core of this instance, given a throughput expressed in
// bytes per second per ECU. One task occupies one core.
func (in *Instance) ComputeDuration(bytes int64, bytesPerECUSec float64) time.Duration {
	if bytesPerECUSec <= 0 {
		panic("ec2: non-positive throughput")
	}
	perCore := bytesPerECUSec * in.Type.ECUPerCore
	return time.Duration(float64(bytes) / perCore * float64(time.Second))
}

// Run schedules a work item of duration d on the least-loaded core and
// bills the time immediately.
func (in *Instance) Run(d time.Duration) {
	in.TL.Schedule(d)
	in.bill()
}

// RunScheduled schedules a work item like Run but additionally returns the
// core chosen, so that follow-on work tied to the same task — e.g. the
// upload stage of the indexing pipeline, which must not start before the
// task's extraction finished on its core — can be placed with RunOn.
func (in *Instance) RunScheduled(d time.Duration) int {
	core := in.TL.Schedule(d)
	in.bill()
	return core
}

// RunOn adds work to a specific core (used when a task must stay on the
// lane that issued a service request).
func (in *Instance) RunOn(core int, d time.Duration) {
	in.TL.Advance(core, d)
	in.bill()
}

// bill charges any unbilled elapsed time to the ledger. Billing follows the
// paper's model: the instance costs VM$h for each (fractional) hour it is
// busy, measured by its elapsed modeled time.
func (in *Instance) bill() {
	in.mu.Lock()
	defer in.mu.Unlock()
	e := in.TL.Elapsed()
	if e > in.billed {
		in.ledger.AddInstanceSeconds(in.Type.Name, (e - in.billed).Seconds())
		in.billed = e
	}
}

// FleetElapsed reports the modeled wall-clock time of a phase executed by a
// fleet in parallel: the maximum elapsed time across instances.
func FleetElapsed(fleet []*Instance) time.Duration {
	tls := make([]*vtime.Timeline, len(fleet))
	for i, in := range fleet {
		tls[i] = in.TL
	}
	return vtime.MaxElapsed(tls...)
}

// FleetLevel raises every instance to the fleet's elapsed time, modeling a
// synchronization barrier between phases, and bills the idle tail so that
// machines waiting on a barrier are still paid for.
func FleetLevel(fleet []*Instance) {
	max := FleetElapsed(fleet)
	for _, in := range fleet {
		lag := max - in.TL.Elapsed()
		if lag > 0 {
			in.TL.Level()
			in.TL.Advance(0, lag)
			in.TL.Level()
		} else {
			in.TL.Level()
		}
		in.bill()
	}
}
