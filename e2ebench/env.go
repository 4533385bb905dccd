package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// scale sizes a run. fullScale is what the benchmark measures;
// smokeScale keeps every code path and check but finishes in seconds.
type scale struct {
	virtualSec float64 // campaign length, virtual seconds
	initRuns   int     // failed runs the first Pipeline.Run trains on
	updateRuns int     // failed runs folded in by one Pipeline.Update each
	setups     int     // set-ups per run; setup_s is the fastest

	clientRuns int // ingest: runs each FMC client sends per round

	sessions int           // fleet: concurrent sessions
	hotEvery int           // fleet: every hotEvery-th session is hot
	hotMult  int           // fleet: a hot session's rate over the base rate
	rateA    float64       // fleet: phase A open-loop rate, samples/s
	roundA   time.Duration // fleet: schedule length of one phase A round
	pushesB  int           // fleet: phase B pushes per generator per round
	// inflightB caps the estimates phase B may owe at once: a generator
	// waits (yielding) at the cap, as a client waiting for replies.
	inflightB int
	shareA    float64 // fleet: share of the measured phase spent in phase A

	replayRuns int // retrain: held-out runs the node replays per round

	probeSamples int // standalone monitor probe size (traced fleet and retrain)
}

func fullScale() scale {
	return scale{
		virtualSec: 100_000, initRuns: 80, updateRuns: 5, setups: 3,
		clientRuns: 20,
		sessions:   2000, hotEvery: 50, hotMult: 4,
		rateA: 20_000, roundA: 500 * time.Millisecond, pushesB: 100_000, inflightB: 256, shareA: 0.3,
		replayRuns:   20,
		probeSamples: 5000,
	}
}

func smokeScale() scale {
	return scale{
		virtualSec: 15_000, initRuns: 20, updateRuns: 2, setups: 1,
		clientRuns: 2,
		sessions:   40, hotEvery: 10, hotMult: 4,
		rateA: 2000, roundA: 100 * time.Millisecond, pushesB: 300, inflightB: 32, shareA: 0.4,
		replayRuns:   2,
		probeSamples: 200,
	}
}

// env is one benchmark run: its parameters, the figures it measured
// and the checks that failed.
type env struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	sc       scale
	nproc    int

	base      time.Time // monotonic origin of every ns timestamp
	metrics   map[string]float64
	errs      []string
	attempted int64
	failed    int64
	tr        *tracer
}

func newEnv(workload string, seed uint64, dur time.Duration, traced bool, sc scale) *env {
	e := &env{
		workload: workload, seed: seed, dur: dur, traced: traced, sc: sc,
		nproc:   runtime.NumCPU(),
		base:    time.Now(),
		metrics: map[string]float64{},
	}
	e.tr = newTracer(e)
	return e
}

// now is the ns since the run started, on the monotonic clock.
func (e *env) now() int64 { return int64(time.Since(e.base)) }

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// errorf records a failed correctness check; the run then reports
// correct=false.
func (e *env) errorf(format string, args ...any) {
	if len(e.errs) < 20 {
		e.errs = append(e.errs, fmt.Sprintf(format, args...))
	}
}

func (e *env) set(name string, v float64) { e.metrics[name] = v }

// medianOf returns the median of xs (NaN when empty).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastTime and fastRate are how a run condenses its rounds into one
// timed figure: the quartile on the fast side (the 25th percentile of
// times, the 75th of rates). Stalls and CPU steal of a shared host only
// ever slow a round, and on the 2-vCPU development VM they moved the
// median of a run's rounds by up to a third between runs; the fast
// quartile still moves with the program's own cost.
func fastTime(xs []float64) float64 { return percentile(xs, 25) }

func fastRate(xs []float64) float64 { return percentile(xs, 75) }

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// quartiles returns q1, median and q3 by the method of Python's
// statistics.quantiles(xs, n=4) (the default, exclusive method), so the
// spread --repeat prints is the one the acceptance check computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// round is what one round of a serving phase measured: the samples
// pushed, the windows estimated, how long until the last estimate, the
// heap allocations and each window's latency in ms.
type round struct {
	samples, windows int64
	dur              time.Duration
	allocs           uint64
	lat              []float64
}

// sampleRates returns each round's samples per second.
func sampleRates(rs []round) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.samples) / r.dur.Seconds()
	}
	return out
}

// overheadPct is the tracing overhead: how much lower the traced
// rounds' median sample rate is than the untraced rounds'.
func overheadPct(plain, traced []round) float64 {
	return 100 * (medianOf(sampleRates(plain))/medianOf(sampleRates(traced)) - 1)
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// procIO reads the write counters of /proc/self/io: write syscalls
// (syscw) and bytes handed to write (wchar).
func procIO() (syscw, wchar int64, err error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "syscw":
			syscw = n
		case "wchar":
			wchar = n
		}
	}
	return syscw, wchar, sc.Err()
}

// stealTicks reads the machine's CPU steal time from /proc/stat, in
// clock ticks: time the hypervisor ran something else while this
// machine had work. The log reports it per phase, since a shared host
// moves every timed figure.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeMark snapshots the Go runtime counters a measured phase is
// charged with.
type runtimeMark struct {
	mallocs uint64
	numGC   uint32
	pauseNs uint64
	cpu     time.Duration
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeMark{mallocs: ms.Mallocs, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs, cpu: cpuTime()}
}

// setRuntime reports the runtime layer over a phase that consumed
// samples datapoints.
func (e *env) setRuntime(from, to runtimeMark, samples int64) {
	e.set("runtime.gc_cycles", float64(to.numGC-from.numGC))
	e.set("runtime.gc_pause_ms", float64(to.pauseNs-from.pauseNs)/1e6)
	e.set("runtime.cpu_ms_per_1k_samples", float64(to.cpu-from.cpu)/1e6/float64(samples)*1000)
}

// liveHeapMB is the heap in use after forced collections; the second
// one frees what sync.Pool caches kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// relClose reports whether got agrees with want within tol relative
// (absolute below magnitude 1).
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}
