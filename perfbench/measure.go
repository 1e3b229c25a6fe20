package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one named number in the benchmark's output.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// outcome is what one workload run reports: its operation tallies and
// either its end-to-end metrics (untraced run) or its per-layer metrics
// (traced run).
type outcome struct {
	attempted int64
	failed    int64 // timeouts, errors, wrong answers, incomplete warm samples
	wrong     int64 // answers that disagreed with the oracle
	firstErr  string
	metrics   []metric
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, v})
}

// fail records a failed operation; wrong marks a wrong answer (as
// opposed to a timeout or error).
func (o *outcome) fail(wrong bool, err error) {
	o.failed++
	if wrong {
		o.wrong++
	}
	if o.firstErr == "" && err != nil {
		o.firstErr = err.Error()
	}
}

// quantile returns the q-quantile (nearest rank) of xs; xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is one sample of a measured phase: the time, the process CPU
// and a caller-defined running count.
type window struct {
	at    time.Time
	cpu   time.Duration
	count int64
}

// sampleWindows samples the process CPU and count every interval until
// the deadline, on its own goroutine; the returned function waits for it
// and returns the samples. Per-window rates reported as medians keep a
// run steady when a noisy neighbour slows part of it.
func sampleWindows(deadline time.Time, every time.Duration, count func() int64) func() []window {
	done := make(chan []window, 1)
	go func() {
		ws := []window{{time.Now(), cpuTime(), count()}}
		for t := time.Now().Add(every); !t.After(deadline); t = t.Add(every) {
			time.Sleep(time.Until(t))
			ws = append(ws, window{time.Now(), cpuTime(), count()})
		}
		done <- ws
	}()
	return func() []window { return <-done }
}

// windowOf sizes a phase's windows: a tenth of it, at most a second.
func windowOf(phase time.Duration) time.Duration {
	return min(phase/10, time.Second)
}

// windowValues returns f(Δseconds, ΔCPU ms, Δcount) for each pair of
// consecutive windows.
func windowValues(ws []window, f func(secs, cpuMs, count float64) float64) []float64 {
	var vals []float64
	for i := 1; i < len(ws); i++ {
		vals = append(vals, f(ws[i].at.Sub(ws[i-1].at).Seconds(), ms(ws[i].cpu-ws[i-1].cpu), float64(ws[i].count-ws[i-1].count)))
	}
	return vals
}

// liveHeapMB collects garbage and returns the live heap in MiB.
// Forcing the collection makes the figure independent of when the
// collector last ran.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runtimeSnap captures the counters behind runtime.allocs_per_op and
// runtime.gc_cpu_fraction.
type runtimeSnap struct {
	mallocs      uint64
	gcCPU, total float64
}

func snapRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{mallocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), total: s[2].Value.Float64()}
}

// runtimeMetrics adds allocations per operation and the GC's share of
// CPU between two snapshots.
func runtimeMetrics(o *outcome, a, b runtimeSnap, ops int64) {
	o.add("runtime.allocs_per_op", "count", float64(b.mallocs-a.mallocs)/float64(max(ops, 1)))
	frac := 0.0
	if b.total > a.total {
		frac = (b.gcCPU - a.gcCPU) / (b.total - a.total)
	}
	o.add("runtime.gc_cpu_fraction", "ratio", frac)
}

// timeSetups runs setup reps times and returns the last deployment and
// the median set-up time; earlier deployments are left to the garbage
// collector. Set-up is repeated because one boot is too noisy to gate
// on.
func timeSetups[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for range reps {
		var zero T
		last = zero
		runtime.GC()
		start := time.Now()
		d, err := setup()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = d
	}
	return last, median(times), nil
}
