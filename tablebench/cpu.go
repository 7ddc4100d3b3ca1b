package main

import (
	"syscall"
	"time"
)

// procCPU returns the CPU time, user plus system, that the process has used
// so far. Unlike wall time, it does not count the time the process waited
// for a processor while other tenants of the host ran.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// CPU time still follows the speed of the host, which on a shared host
// changed from one minute to the next: the same rows took 5.3 s of CPU time
// in one run and 8.3 s in another. The benchmark therefore runs a fixed
// probe before every row and reports reference CPU time: CPU time scaled by
// probeRef over the probe's median time around the same row. The probe is
// the benchmark's own code, so a change to the program moves reference
// times exactly as it moves CPU times.

// probeRef is the probe's CPU time at the reference host speed. It is fixed,
// so that reference times compare across runs and commits, and set near the
// probe's median on an idle 2-vCPU host, so that reference seconds read
// close to CPU seconds there.
const probeRef = 600 * time.Microsecond

// The probe walks two tables: one of 256 KiB, which fits a core's L2 cache
// as a row's solver state does, and one of 32 MiB, which no cache holds.
// Slow stretches of the host slowed the solver more than they slowed cached
// work: on the same rows, normalising by the small table alone left the CPU
// time's coefficient of variation at 0.065 (from 0.142), and by both tables
// at 0.038.
var (
	probeSmall [1 << 16]uint32
	probeLarge [1 << 23]uint32
)

// probeSink keeps the compiler from discarding the probe's work.
var probeSink uint32

// probe runs a fixed amount of work, dependent table loads and stores in a
// fixed pseudo-random order, and returns its CPU time.
func probe() time.Duration {
	c0 := procCPU()
	probeSink = walk(probeSmall[:], 100_000) + walk(probeLarge[:], 20_000)
	return procCPU() - c0
}

// walk makes steps dependent loads and stores in t, whose length is a power
// of two.
func walk(t []uint32, steps uint32) uint32 {
	x := uint32(2463534242)
	var s uint32
	mask := uint32(len(t)) - 1
	for i := uint32(0); i < steps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & mask
		s += t[j]
		t[j] = s ^ i
	}
	return s
}

// speed collects the probe's times over one stretch of work, a pass or one
// set-up, one probe before each row.
type speed []float64

// sample runs the probe once.
func (s *speed) sample() { *s = append(*s, probe().Seconds()) }

// probeWindow is how many probes on each side of a row its host speed is
// read from. The host's speed changes from one second to the next; 21
// probes span well under a second of rows on either workload.
const probeWindow = 10

// ref converts the CPU time d of row i of the stretch to reference CPU
// time, by the median of the probes around the row.
func (s speed) ref(i int, d time.Duration) time.Duration {
	lo, hi := max(0, i-probeWindow), min(len(s), i+probeWindow+1)
	return time.Duration(float64(d) * probeRef.Seconds() / median(s[lo:hi]))
}

// probeMS is the probe's median time during the stretch, in ms.
func (s speed) probeMS() float64 { return ms(median(s)) }
