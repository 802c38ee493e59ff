package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailLadder lists the percentiles a timing's tail is reported at, from
// the highest down.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail read off fewer samples is one outlier's value.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		// The tolerance absorbs float error in 100-p (100-99.9 is not
		// exactly 0.1).
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks (the "R-7" rule of numpy and
// spreadsheets). sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := p / 100 * float64(len(sorted)-1)
	lo := math.Floor(h)
	i := int(lo)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (h-lo)*(sorted[i+1]-sorted[i])
}

// summary is a timing distribution as the benchmark reports it: the
// sample count, the median, the highest percentile with at least
// minBeyond samples beyond it (0 when none qualifies) and the raw
// samples in measurement order.
type summary struct {
	N       int       `json:"n"`
	P50     float64   `json:"p50"`
	TailPct float64   `json:"tail_pct"`
	Tail    float64   `json:"tail"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

func summarize(samples []float64) summary {
	s := summary{N: len(samples), Samples: samples}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.P50 = percentile(sorted, 50)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	if p := tailPercentile(len(sorted)); p > 0 {
		s.TailPct, s.Tail = p, percentile(sorted, p)
	}
	return s
}

// at returns the p-th percentile of samples (unsorted), 0 when empty.
func at(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return percentile(sorted, p)
}

func median(samples []float64) float64 { return at(samples, 50) }

// cpuClock reads the process's CPU time (user plus system) and the
// machine's stolen time: on a shared virtual machine, time the
// hypervisor gave to other guests shows up in wall-clock timings but
// in neither of the process's own clocks.
type cpuClock struct {
	cpu, steal time.Duration
}

func readCPU() cpuClock {
	var c cpuClock
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		// cpu  user nice system idle iowait irq softirq steal ...
		line, _, _ := strings.Cut(string(b), "\n")
		if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
			if ticks, err := strconv.ParseInt(f[8], 10, 64); err == nil {
				c.steal = time.Duration(ticks) * time.Second / 100 // USER_HZ
			}
		}
	}
	return c
}

func (c cpuClock) sub(o cpuClock) cpuClock { return cpuClock{c.cpu - o.cpu, c.steal - o.steal} }
