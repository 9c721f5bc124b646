package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// procKB reads one "Key:   <n> kB" line from a /proc status-style file and
// returns n in KiB, or 0 when the file or key is missing (non-Linux).
func procKB(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			return 0
		}
		n, _ := strconv.ParseInt(fields[0], 10, 64)
		return n
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 { return float64(procKB("/proc/self/status", "VmHWM")) / 1024 }

// memAvailableBytes is the kernel's estimate of memory available to a new
// workload without swapping; 0 when unknown.
func memAvailableBytes() int64 { return procKB("/proc/meminfo", "MemAvailable") * 1024 }
