//go:build unix

package xmltree

import (
	"syscall"
	"time"
)

// processorTime is the processor time the process has used, user and
// system: unlike the clock, it does not run while the process waits for a
// core.
func processorTime() time.Duration {
	var u syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &u); err != nil {
		panic(err)
	}
	return time.Duration(u.Utime.Nano() + u.Stime.Nano())
}
