package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rusageCPU returns user+sys CPU time of the process (who =
// RUSAGE_SELF) or of the calling OS thread (RUSAGE_THREAD). Unlike wall
// time it excludes the time a virtual machine's hypervisor steals.
func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic("getrusage: " + err.Error()) // Linux only fails on a bad who
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the CPU time of the whole process so far.
func processCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// threadCPU is the CPU time of the calling OS thread so far; callers pin
// the goroutine with runtime.LockOSThread around the two readings.
func threadCPU() time.Duration { return rusageCPU(syscall.RUSAGE_THREAD) }

// sampler accumulates per-operation measurements: one CPU delta and one
// wall delta per operation.
type sampler struct {
	cpu  []time.Duration
	wall []time.Duration
}

func (s *sampler) add(cpu, wall time.Duration) {
	s.cpu = append(s.cpu, cpu)
	s.wall = append(s.wall, wall)
}

func (s *sampler) n() int { return len(s.cpu) }

func (s *sampler) totalCPU() time.Duration { return sum(s.cpu) }

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// perSecond is count ÷ d, or 0 for an empty interval.
func perSecond(count int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(count) / d.Seconds()
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us renders a duration in microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile (0 < q ≤ 1) of the samples.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// tailPercentiles are the tail percentiles a timing may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// tailPercentile is the highest percentile of tailPercentiles with at
// least 10 of n samples beyond it, or 0 when n is too small for any:
// a tail figure resting on fewer samples is noise.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// medianFloat is the median of a non-empty float sample.
func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// stealSeconds reads the host's cumulative steal time from /proc/stat:
// CPU time the hypervisor gave to other guests while this one was
// runnable. It returns 0 where the file or the field is missing.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text()) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ is 100 on Linux
}
