package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(q*float64(len(xs)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(xs) {
		i = len(xs)
	}
	return xs[i-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windows is how many equal windows a measured phase is cut into; a
// rate or percentile is taken per window and the median across windows
// reported, so a burst of interference from outside the process moves
// one window rather than the whole run.
const windows = 10

// windowRate cuts the first dur of a phase into equal windows, sums
// the work completed in each (at: completion offsets into the phase,
// n: the work each completion carried), and returns the median
// per-window rate.
func windowRate(at []time.Duration, n []float64, dur time.Duration) float64 {
	w := dur / windows
	var per [windows]float64
	for i, a := range at {
		if k := int(a / w); k >= 0 && k < windows {
			per[k] += n[i]
		}
	}
	return median(per[:]) / w.Seconds()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer not on the workload's path).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memDelta is the runtime.MemStats movement over a measured phase.
type memDelta struct {
	allocBytes, mallocs, gcCycles uint64
	pauseNs                       uint64
}

// memBetween is the movement between two MemStats readings.
func memBetween(m0, m1 *runtime.MemStats) memDelta {
	return memDelta{
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcCycles:   uint64(m1.NumGC - m0.NumGC),
		pauseNs:    m1.PauseTotalNs - m0.PauseTotalNs,
	}
}

// memPhase brackets a measured phase: call it before, then call the
// returned function after.
func memPhase() func() memDelta {
	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	return func() memDelta {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		return memBetween(&m0, &m1)
	}
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// childProcesses lists the PIDs of this process's live children (every
// thread's /proc children file).
func childProcesses() []string {
	files, _ := filepath.Glob("/proc/self/task/*/children")
	var pids []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		pids = append(pids, strings.Fields(string(raw))...)
	}
	return pids
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
