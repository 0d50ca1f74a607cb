//go:build !unix

package xmltree

import "time"

var clockStart = time.Now()

// processorTime is the clock where the process's processor time cannot be
// read.
func processorTime() time.Duration { return time.Since(clockStart) }
