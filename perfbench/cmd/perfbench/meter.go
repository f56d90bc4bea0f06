package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"

	"farron/internal/engine/wallclock"
)

// sample is what the meter records around one timed operation.
type sample struct {
	wall, cpu      float64 // host wall and process user+sys seconds
	mallocs, bytes uint64  // heap allocations and bytes allocated
	heapInuse      uint64  // HeapInuse right after the operation
	gcs            uint32  // GC cycles completed during the operation
	gcPauseNs      uint64  // stop-the-world pause time during the operation
}

// meter times operations for a fixed budget of seconds and counts the ones
// that fail. tr is nil on the untraced run.
type meter struct {
	tr        *tracer
	clock     wallclock.Stamp
	seconds   float64
	minOps    int
	samples   []sample
	attempted int
	failed    int
}

func newMeter(tr *tracer, seconds float64, minOps int) *meter {
	return &meter{tr: tr, clock: wallclock.Start(), seconds: seconds, minOps: minOps}
}

// done reports whether the time budget is spent and the minimum number of
// operations has been timed.
func (m *meter) done() bool {
	return len(m.samples) >= m.minOps && m.clock.Seconds() >= m.seconds
}

// op times fn as one operation named name, then runs check outside the
// timed interval. An error from either counts the operation as failed.
func (m *meter) op(name string, fn func(parent, op int) error, check func() error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, b0, gc0, p0 := ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	cpu0 := cpuSeconds()
	start := wallclock.Start()
	opID := m.tr.op()
	sp := m.tr.begin(name, -1, opID)
	err := fn(sp, opID)
	m.tr.end(sp)
	wall := start.Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms)
	s := sample{
		wall: wall, cpu: cpu,
		mallocs: ms.Mallocs - m0, bytes: ms.TotalAlloc - b0,
		heapInuse: ms.HeapInuse,
		gcs:       ms.NumGC - gc0, gcPauseNs: ms.PauseTotalNs - p0,
	}
	if err == nil && check != nil {
		err = check()
	}
	m.attempted++
	if err != nil {
		m.fail(1, fmt.Errorf("%s: %w", name, err))
	}
	m.samples = append(m.samples, s)
}

// fail counts n already-attempted operations as failed.
func (m *meter) fail(n int, err error) {
	m.failed += n
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

// count records one operation checked outside op; err fails it.
func (m *meter) count(err error) {
	m.attempted++
	if err != nil {
		m.fail(1, err)
	}
}

// cpuSeconds returns the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// column extracts one field of every sample.
func (m *meter) column(f func(sample) float64) []float64 {
	out := make([]float64, len(m.samples))
	for i, s := range m.samples {
		out[i] = f(s)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99, p95, p90 and p75 that leaves at
// least ten of n samples beyond it (p50 when none does).
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
