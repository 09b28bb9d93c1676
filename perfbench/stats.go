package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Every percentile the benchmark prints is computed here from the raw
// samples, never from bucketed histograms: a power-of-two bucket reads
// up to 2× high and flips between buckets from run to run.

// quantile returns the q-quantile of xs, interpolating linearly between
// the two closest ranks of the sorted sample (Hyndman–Fan type 7). xs is
// not modified. An empty sample yields NaN, which the report refuses.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	i := int(math.Floor(h))
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms and sec convert a duration to float milliseconds and seconds.
func ms(d time.Duration) float64  { return float64(d) / 1e6 }
func sec(d time.Duration) float64 { return d.Seconds() }

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process from
// /proc, in MB; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1e3, nil
		}
	}
	return 0, os.ErrNotExist
}
