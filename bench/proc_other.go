//go:build !unix

package main

import "time"

// cpuTime is unavailable off unix; process.cpu_s then reads 0.
func cpuTime() time.Duration { return 0 }
