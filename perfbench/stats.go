package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile is the q-quantile (0..1) of xs by linear interpolation between
// order statistics; 0 for an empty sample, which is how an unexercised
// metric reads.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac is num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB is the process's resident-set high-water mark in MiB: VmHWM
// from /proc/self/status where the kernel offers it, else the Go runtime's
// total obtained memory.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// setupRepeats is how many times a run builds its set-up; setup_s is the
// median, so one slow build does not move it.
const setupRepeats = 5

// kernelsPerSetupGap is how many reference kernels a run times before,
// between and after its set-up builds.
const kernelsPerSetupGap = 3

// timeSetups runs build setupRepeats times, keeping only the last result
// (earlier ones are released through their teardown). It returns that
// result, the median build time in seconds at the nominal box speed, and
// the median raw build time. Each build is scaled by the reference kernels
// timed just before and just after it: set-up lasts a few seconds, too
// short for the run's median kernel time to stand for the box speed
// while it ran. On error nothing is left to tear down.
func timeSetups[T any](box *boxSpeed, build func() (T, error), teardown func(T)) (T, float64, float64, error) {
	var (
		last          T
		raw, scaled   []float64
		before, after []float64
	)
	before = box.sample(kernelsPerSetupGap)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && teardown != nil {
			teardown(last)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, 0, err
		}
		d := time.Since(start).Seconds()
		last = v
		after = box.sample(kernelsPerSetupGap)
		raw = append(raw, d)
		scaled = append(scaled, d*refNominalMs/median(append(before, after...)))
		before = after
	}
	return last, median(scaled), median(raw), nil
}

// refNominalMs is the reference kernel's time on the nominal box every
// end-to-end time is scaled to.
const refNominalMs = 1.0

// refBuf is the reference kernel's working set: 128 KiB, cache-resident on
// any current CPU, allocated once so the kernel allocates nothing.
var refBuf [1 << 14]uint64

// refKernel runs a fixed integer and cache workload, about 1 ms on a
// 2 GHz Xeon, and returns its wall time in ms.
func refKernel() float64 {
	t := time.Now()
	x := uint64(1)
	for j := 0; j < 500_000; j++ {
		x = x*6364136223846793005 + 1442695040888963407
		refBuf[x>>50] += x
	}
	refBuf[0] = x
	return ms(time.Since(t))
}

// boxSpeed records the reference kernel's time at a run's idle points
// (around each set-up build, between plans, between sweeps).
// The shared VMs this runs on drift by a third over minutes while the
// ratio of plan time to kernel time stays within a few percent, so the
// end-to-end times are reported at the nominal box speed: raw × scale.
type boxSpeed struct{ samples []float64 }

// sample times n reference kernels and returns their times.
func (b *boxSpeed) sample(n int) []float64 {
	for i := 0; i < n; i++ {
		b.samples = append(b.samples, refKernel())
	}
	return append([]float64(nil), b.samples[len(b.samples)-n:]...)
}

// scale is refNominalMs over the run's median kernel time: above 1 on a
// box faster than nominal.
func (b *boxSpeed) scale() float64 {
	if len(b.samples) == 0 {
		return 1
	}
	return refNominalMs / median(b.samples)
}
