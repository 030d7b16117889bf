package main

import (
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: values below
// 256 ns have exact buckets, larger ones 128 sub-buckets per power of two
// (≤ 0.8% relative width). Recording is O(1) and allocation-free, so a
// window keeps every sample without a buffer that would itself show up in
// the heap metrics.
type hist struct {
	counts [64 * 128]uint64
	n      uint64
}

func histIndex(v uint64) int {
	if v < 256 {
		return int(v)
	}
	e := bits.Len64(v) - 8 // v>>e is in [128, 256)
	return e*128 + int(v>>e)
}

// histBounds returns the [lo, hi) nanosecond range bucket i covers.
func histBounds(i int) (lo, hi float64) {
	if i < 256 {
		return float64(i), float64(i + 1)
	}
	e := i/128 - 1
	sub := uint64(i%128 + 128)
	return float64(sub << e), float64((sub + 1) << e)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := histBounds(len(h.counts) - 1)
	return lo
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// procCPU returns the process's user+system CPU time (getrusage).
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples the live heap: the bytes the garbage collector found
// reachable at the end of its latest cycle, read through runtime/metrics
// (which does not stop the world). Unlike the instantaneous in-use heap,
// which swings up to the collection goal between cycles, it does not
// depend on where a sample lands relative to a collection.
type heapSampler struct {
	s       [1]metrics.Sample
	samples []float64
}

func newHeapSampler() *heapSampler {
	h := &heapSampler{samples: make([]float64, 0, 1024)}
	h.s[0].Name = "/gc/heap/live:bytes"
	h.sample()
	return h
}

func (h *heapSampler) sample() {
	metrics.Read(h.s[:])
	h.samples = append(h.samples, float64(h.s[0].Value.Uint64()))
}

// peakMB is the run's peak live heap, taken as the 90th percentile of the
// samples: the single highest one depends on how many in-flight buffers one
// collection happened to catch, and jitters from run to run.
func (h *heapSampler) peakMB() float64 {
	xs := append([]float64(nil), h.samples...)
	sort.Float64s(xs)
	return xs[len(xs)*9/10] / 1e6
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// window is the period of the per-window values every timing metric is
// the median of: short enough for a run to give hundreds of windows, long
// enough to hold over a hundred operations on every workload.
const window = 100 * time.Millisecond

// meter measures one workload's timed steady state from the thread that
// completes its operations. Every timing metric is the median of per-window
// values (latency quantiles, delivery rate, CPU per op), so a preemption
// burst or a stalled collection that slows a few windows cannot move it. In
// a traced run (alternate) even windows run untraced and odd windows
// traced, so the tracing overhead compares interleaved periods of the same
// run rather than drift.
type meter struct {
	alternate bool
	heap      *heapSampler
	ops       int64

	p50s  [2][]float64 // [untraced, traced]
	p90s  []float64
	rates []float64 // MB/s
	cpus  []float64 // process CPU µs per op

	t0           time.Time
	mall0, mall1 uint64

	win      int
	winLat   hist
	winStart time.Time
	winBytes int64
	winOps   int64
	winCPU   time.Duration
}

func newMeter(alternate bool, heap *heapSampler) *meter {
	return &meter{alternate: alternate, heap: heap}
}

// start opens the timed window. The rusage and malloc reads come last so
// the window excludes them.
func (m *meter) start() {
	m.heap.sample()
	m.mall0 = mallocs()
	m.winCPU = procCPU()
	m.t0 = time.Now()
	m.winStart = m.t0
}

// tracing reports whether the current window records spans.
func (m *meter) tracing() bool { return m.alternate && m.win%2 == 1 }

// done records one completed operation of latency d that delivered n
// payload bytes, observed at now.
func (m *meter) done(d time.Duration, n int, now time.Time) {
	m.winLat.record(d)
	m.ops++
	m.winBytes += int64(n)
	m.winOps++
	if el := now.Sub(m.winStart); el >= window {
		m.closeWindow(now, el)
	}
}

func (m *meter) closeWindow(now time.Time, el time.Duration) {
	cpu := procCPU()
	tr := m.tracing()
	m.p50s[btoi(tr)] = append(m.p50s[btoi(tr)], m.winLat.quantile(0.5)/1e3)
	if !tr {
		m.p90s = append(m.p90s, m.winLat.quantile(0.9)/1e3)
		m.rates = append(m.rates, float64(m.winBytes)/el.Seconds()/1e6)
		m.cpus = append(m.cpus, float64(cpu-m.winCPU)/1e3/float64(m.winOps))
	}
	m.heap.sample()
	m.win++
	m.winLat = hist{}
	m.winStart, m.winCPU = now, cpu
	m.winBytes, m.winOps = 0, 0
}

// stop closes the timed window. A run too short to fill one window (a
// fixed-rounds test run) closes its partial window instead.
func (m *meter) stop() {
	if len(m.p90s) == 0 && m.winOps > 0 {
		now := time.Now()
		m.closeWindow(now, now.Sub(m.winStart))
	}
	m.mall1 = mallocs()
	m.heap.sample()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// endToEnd returns the seven end-to-end metrics of the untraced windows.
func (m *meter) endToEnd(setups []time.Duration) []metric {
	ops := float64(m.ops)
	if ops == 0 {
		ops = 1 // a run without ops reports totals; it has failed anyway
	}
	ss := make([]float64, len(setups))
	for i, d := range setups {
		ss[i] = d.Seconds()
	}
	return []metric{
		{"lat_p50_us", median(m.p50s[0]), "us"},
		{"lat_p90_us", median(m.p90s), "us"},
		{"goodput_MBps", median(m.rates), "MB/s"},
		{"cpu_us_per_op", median(m.cpus), "us"},
		{"allocs_per_op", float64(m.mall1-m.mall0) / ops, "count"},
		{"heap_peak_MB", m.heap.peakMB(), "MB"},
		{"setup_s", median(ss), "s"},
	}
}

// traceOverhead is the traced windows' median latency over the untraced
// windows', in percent.
func (m *meter) traceOverhead() float64 {
	base := median(m.p50s[0])
	if base == 0 || len(m.p50s[1]) == 0 {
		return 0
	}
	return (median(m.p50s[1]) - base) / base * 100
}
