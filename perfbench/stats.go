package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted samples and how many samples lie strictly above it, so a
// report can say how much of the tail the figure rests on. An empty
// input gives (0, 0).
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	value = sorted[rank-1]
	above := sort.Search(n, func(i int) bool { return sorted[i] > value })
	return value, n - above
}

// median of unsorted samples (the input is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 50)
	return v
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// zipf draws indices 0..n-1 with probability proportional to
// 1/(rank+1)^s from its own seeded source, so the same seed replays the
// same draw sequence.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(n int, s float64, seed int64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &zipf{cdf: cdf, rng: rand.New(rand.NewSource(seed))}
}

func (z *zipf) next() int {
	i := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// openLoop is a fixed-rate arrival schedule: event i is due at
// start + i*interval whether or not event i-1 has finished.
type openLoop struct {
	start    time.Time
	interval time.Duration
}

func (o openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

// account times one event from when it was due, not from when the
// generator got to it, so a stall is charged to every event it delays;
// lag is how late the generator started the event.
func (o openLoop) account(i int, started, done time.Time) (latency, lag time.Duration) {
	due := o.due(i)
	lag = started.Sub(due)
	if lag < 0 {
		lag = 0
	}
	return done.Sub(due), lag
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB since the
// last resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS releases the heap's free memory to the operating system
// (after a full collection) and resets the kernel's peak resident set
// to the current one, so peakRSSMB then covers only what runs after.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runtimeSample is the slice of Go runtime state the runtime layer's
// metrics are deltas of.
type runtimeSample struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
	heapBytes          uint64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func sampleRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return runtimeSample{
		allocBytes: ms[0].Value.Uint64(),
		allocs:     ms[1].Value.Uint64(),
		gcCPU:      ms[2].Value.Float64(),
		totalCPU:   ms[3].Value.Float64(),
		heapBytes:  ms[4].Value.Uint64(),
	}
}

// runtimeLayer renders the runtime layer's metrics for ops operations
// completed between two samples.
func runtimeLayer(before, after runtimeSample, ops int) map[string]float64 {
	out := map[string]float64{
		"runtime.heap_mb": float64(after.heapBytes) / (1 << 20),
	}
	if ops > 0 {
		out["runtime.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / float64(ops)
		out["runtime.allocs_per_op"] = float64(after.allocs-before.allocs) / float64(ops)
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_pct"] = 100 * (after.gcCPU - before.gcCPU) / cpu
	}
	return out
}
