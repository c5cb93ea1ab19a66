package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// coarseSlack is how early the runtime timer may wake a sleeping sender.
// time.Sleep rounds sub-millisecond waits up to the Go poller's
// millisecond timeout, which would make the generator itself late by
// most of a millisecond; the last stretch before a request is due is
// slept with nanosleep(2) instead, which wakes within tens of
// microseconds.
const coarseSlack = 2 * time.Millisecond

func (c realClock) SleepUntil(t time.Duration) {
	if d := t - c.Now() - coarseSlack; d > 0 {
		time.Sleep(d)
	}
	for d := t - c.Now(); d > 0; d = t - c.Now() {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// cpuTime is the CPU time the process has used, user plus system. The
// kernel leaves out time a hypervisor stole from the VM, which wall
// time on a shared host does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage(RUSAGE_SELF): " + err.Error()) // cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS starts a new peak-resident-memory window: writing 5 to
// clear_refs sets the process's VmHWM back to its current RSS, so
// peakRSSMB then reports the peak of what ran after the call only.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size since the last
// resetPeakRSS, in MB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
