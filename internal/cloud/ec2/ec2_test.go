package ec2

import (
	"math"
	"testing"
	"time"

	"repro/internal/meter"
)

func TestInstanceTypes(t *testing.T) {
	if ecu := float64(Large.Cores) * Large.ECUPerCore; ecu != 4 {
		t.Errorf("large ECU = %v, want 4", ecu)
	}
	if ecu := float64(XL.Cores) * XL.ECUPerCore; ecu != 8 {
		t.Errorf("xl ECU = %v, want 8", ecu)
	}
	if typ, err := TypeByName("xl"); err != nil || typ.Name != "xl" {
		t.Errorf("TypeByName(xl) = %v, %v", typ, err)
	}
	if _, err := TypeByName("huge"); err == nil {
		t.Error("TypeByName(huge) succeeded")
	}
}

func TestComputeDuration(t *testing.T) {
	in := Launch(meter.NewLedger(), Large)
	// 4 MB at 1 MB/s/ECU on a 2-ECU core -> 2 seconds.
	got := in.ComputeDuration(4<<20, 1<<20)
	if got != 2*time.Second {
		t.Errorf("ComputeDuration = %v, want 2s", got)
	}
}

func TestRunSchedulesAcrossCores(t *testing.T) {
	in := Launch(meter.NewLedger(), Large) // 2 cores
	for i := 0; i < 4; i++ {
		in.Run(time.Second)
	}
	if got := in.TL.Elapsed(); got != 2*time.Second {
		t.Errorf("Elapsed = %v, want 2s", got)
	}
}

func TestXLTwiceTheCoresOfL(t *testing.T) {
	lg := Launch(meter.NewLedger(), Large)
	xl := Launch(meter.NewLedger(), XL)
	for i := 0; i < 8; i++ {
		lg.Run(time.Second)
		xl.Run(time.Second)
	}
	if lg.TL.Elapsed() != 2*xl.TL.Elapsed() {
		t.Errorf("l=%v, xl=%v: want exactly 2x", lg.TL.Elapsed(), xl.TL.Elapsed())
	}
}

func TestBillingTracksElapsed(t *testing.T) {
	led := meter.NewLedger()
	in := Launch(led, Large)
	in.Run(10 * time.Second)
	in.Run(10 * time.Second) // second core: elapsed still 10s
	got := led.Snapshot().InstanceSeconds("l")
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("billed %v s, want 10", got)
	}
	in.Run(5 * time.Second) // core 0 now 15s
	got = led.Snapshot().InstanceSeconds("l")
	if math.Abs(got-15) > 1e-9 {
		t.Errorf("billed %v s, want 15", got)
	}
}

func TestLaunchFleetDistinctIDs(t *testing.T) {
	fleet := LaunchFleet(meter.NewLedger(), Large, 8)
	if len(fleet) != 8 {
		t.Fatalf("fleet size %d", len(fleet))
	}
	ids := make(map[string]bool)
	for _, in := range fleet {
		if ids[in.ID] {
			t.Errorf("duplicate instance ID %s", in.ID)
		}
		ids[in.ID] = true
	}
}

func TestFleetElapsedIsMax(t *testing.T) {
	fleet := LaunchFleet(meter.NewLedger(), Large, 2)
	fleet[0].Run(3 * time.Second)
	fleet[1].Run(9 * time.Second)
	if got := FleetElapsed(fleet); got != 9*time.Second {
		t.Errorf("FleetElapsed = %v, want 9s", got)
	}
}

func TestFleetLevelBarrier(t *testing.T) {
	led := meter.NewLedger()
	fleet := LaunchFleet(led, Large, 2)
	fleet[0].Run(2 * time.Second)
	fleet[1].Run(10 * time.Second)
	FleetLevel(fleet)
	for i, in := range fleet {
		if got := in.TL.Elapsed(); got != 10*time.Second {
			t.Errorf("instance %d elapsed = %v, want 10s", i, got)
		}
	}
	// The barrier bills idle time too: both instances billed 10s each.
	got := led.Snapshot().InstanceSeconds("l")
	if math.Abs(got-20) > 1e-9 {
		t.Errorf("fleet billed %v s, want 20", got)
	}
}

func TestEightInstancesEightfoldThroughput(t *testing.T) {
	// The elasticity claim: the same task count over 8 instances yields
	// one eighth of the modeled elapsed time.
	led := meter.NewLedger()
	one := LaunchFleet(led, Large, 1)
	eight := LaunchFleet(led, Large, 8)
	for i := 0; i < 64; i++ {
		one[0].Run(time.Second)
		eight[i%8].Run(time.Second)
	}
	if FleetElapsed(one) != 8*FleetElapsed(eight) {
		t.Errorf("one=%v eight=%v", FleetElapsed(one), FleetElapsed(eight))
	}
}
