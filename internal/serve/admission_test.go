package serve

import (
	"runtime"
	"testing"
)

func TestLimitsDefaults(t *testing.T) {
	l := Limits{}.withDefaults()
	if l.Workers != runtime.NumCPU() {
		t.Errorf("Workers = %d, want NumCPU = %d", l.Workers, runtime.NumCPU())
	}
	if l.QueueDepth != 4*l.Workers {
		t.Errorf("QueueDepth = %d, want %d", l.QueueDepth, 4*l.Workers)
	}
	if l := (Limits{Workers: 3, QueueDepth: 5}).withDefaults(); l != (Limits{Workers: 3, QueueDepth: 5}) {
		t.Errorf("set limits resolved to %+v, want them kept", l)
	}
}
