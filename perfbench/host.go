package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"
)

// What the host took from this process's machine. On a virtual machine
// that shares its CPUs with other tenants, steal time is the time a
// virtual CPU was ready to run while the hypervisor ran something else;
// the kernel counts it in /proc/stat. A window of traffic that ran while
// CPUs were stolen measures the neighbours, not the program.

// stealTicks returns the machine's steal time so far, summed over its
// CPUs, in 10 ms ticks; 0 where /proc/stat is missing.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	var buf [256]byte
	n, _ := f.Read(buf[:])
	// cpu  user nice system idle iowait irq softirq steal …
	line, _, _ := bytes.Cut(buf[:n], []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0
	}
	t, _ := strconv.ParseInt(string(fields[8]), 10, 64)
	return t
}

// hostClock is the process's CPU time and the machine's steal time at
// one instant; runs print both over the timed phase, so a slow run can be
// told from a slow program.
type hostClock struct {
	cpu   time.Duration
	steal int64
}

func readHostClock() hostClock {
	h := hostClock{steal: stealTicks()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		h.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return h
}

// since formats the CPU and steal time spent since h over a wall time.
func (h hostClock) since(wall time.Duration) string {
	n := readHostClock()
	return "cpu " + strconv.FormatFloat((n.cpu-h.cpu).Seconds(), 'f', 2, 64) +
		"s, steal " + strconv.FormatFloat(float64(n.steal-h.steal)/100, 'f', 2, 64) + "s over " +
		strconv.FormatFloat(wall.Seconds(), 'f', 2, 64) + "s"
}
