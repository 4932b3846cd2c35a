package benchreg

import (
	"runtime"
	"sort"
	"time"
)

// Opts configures the repetition harness.
type Opts struct {
	// Warmup is the number of untimed calls before sampling begins (page
	// faults, cache fill, branch-predictor training).
	Warmup int `json:"warmup"`
	// Reps is the number of timed repetitions; the reported median and MAD
	// are taken across them.
	Reps int `json:"reps"`
	// MinDuration is the minimum wall time per repetition: within one
	// repetition the kernel is called back-to-back until at least this
	// much time has elapsed, and the repetition's sample is the mean time
	// per call. This amortizes timer granularity for sub-millisecond
	// kernels.
	MinDuration time.Duration `json:"min_duration_ns"`
}

// DefaultOpts is the full-fidelity preset used by interactive measure
// runs and `benchreg run` without -short.
func DefaultOpts() Opts {
	return Opts{Warmup: 1, Reps: 7, MinDuration: 100 * time.Millisecond}
}

// ShortOpts is the fast preset for CI gates and local iteration: fewer,
// shorter repetitions. Noise-aware checking compensates for the larger
// per-sample jitter via the recorded MAD.
func ShortOpts() Opts {
	return Opts{Warmup: 1, Reps: 5, MinDuration: 20 * time.Millisecond}
}

// withDefaults fills zero fields so a partially-specified Opts behaves.
func (o Opts) withDefaults() Opts {
	d := DefaultOpts()
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.Reps <= 0 {
		o.Reps = d.Reps
	}
	if o.MinDuration <= 0 {
		o.MinDuration = d.MinDuration
	}
	return o
}

// Sample is the statistical summary of one kernel's timed repetitions.
type Sample struct {
	// Items is the work-item count per kernel invocation.
	Items int
	// Reps is the number of timed repetitions taken.
	Reps int
	// MedianSec and MADSec summarize the per-invocation wall time.
	MedianSec float64
	MADSec    float64
	// OpsPerSec and OpsMAD summarize throughput (Items/MedianSec is not
	// used; throughput is computed per repetition and summarized directly
	// so its MAD is a genuine spread, not a first-order propagation).
	OpsPerSec float64
	OpsMAD    float64
	// AllocsPerOp is the median heap allocations per kernel invocation
	// (one f() call), counted via the runtime's cumulative Mallocs
	// counter around each repetition's run loop. Unlike wall time it is
	// machine-independent: the same binary on the same inputs allocates
	// the same number of objects on a laptop and a loaded CI runner,
	// which makes it the one gated quantity that needs no noise band.
	AllocsPerOp float64
	// Throughputs holds the raw per-repetition throughput samples (not
	// serialized; used by tests and ad-hoc analysis).
	Throughputs []float64
}

// Measure times f, which processes items work units per call, under the
// given options and returns the median±MAD summary. It is the repo's one
// timing method: internal/bench's Result.Time times every experiment row
// through it, for `benchreg run` and `finbench -mode measure` alike.
func Measure(items int, f func(), o Opts) Sample {
	o = o.withDefaults()
	for i := 0; i < o.Warmup; i++ {
		f()
	}
	secs := make([]float64, 0, o.Reps)
	ops := make([]float64, 0, o.Reps)
	allocs := make([]float64, 0, o.Reps)
	var ms runtime.MemStats
	for r := 0; r < o.Reps; r++ {
		var elapsed time.Duration
		runs := 0
		// Mallocs is a cumulative monotonic counter, so the delta across
		// the repetition counts exactly the allocations of its runs (GC
		// cannot decrease it). Both reads sit outside the timed windows.
		runtime.ReadMemStats(&ms)
		mallocsBefore := ms.Mallocs
		for elapsed < o.MinDuration {
			start := time.Now()
			f()
			elapsed += time.Since(start)
			runs++
		}
		runtime.ReadMemStats(&ms)
		per := elapsed.Seconds() / float64(runs)
		secs = append(secs, per)
		ops = append(ops, float64(items)/per)
		allocs = append(allocs, float64(ms.Mallocs-mallocsBefore)/float64(runs))
	}
	return Sample{
		Items:       items,
		Reps:        o.Reps,
		MedianSec:   Median(secs),
		MADSec:      MAD(secs),
		OpsPerSec:   Median(ops),
		OpsMAD:      MAD(ops),
		AllocsPerOp: Median(allocs),
		Throughputs: ops,
	}
}

// calibSink defeats dead-code elimination of the calibration loop.
var calibSink float64

// Calibrate times a fixed, memory-free ALU/FPU kernel (xorshift mixing
// feeding a float accumulator) under the given options and returns its
// throughput in iterations/sec. The kernel's working set is three
// registers, so its speed is a clean proxy for the machine's effective
// CPU speed at measurement time — unaffected by cache aliasing, heap
// layout, or allocator state. Snapshots record it so two runs can be
// compared net of uniform machine-speed drift. (A code change cannot
// speed it up or slow it down except through the toolchain itself; a
// toolchain regression uniform enough to slow this loop equally with
// every kernel is the one case normalization masks, which is why check
// also prints the raw factor.)
func Calibrate(o Opts) float64 {
	const iters = 1 << 20
	s := Measure(iters, func() {
		x := uint64(0x9E3779B97F4A7C15)
		acc := 0.0
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += float64(x>>40) * 1e-9
		}
		calibSink = acc
	}, o)
	return s.OpsPerSec
}

// Median returns the median of xs (mean of the middle pair for even
// lengths); 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MAD returns the median absolute deviation from the median, the robust
// dispersion estimate used by the regression gate. Unlike the standard
// deviation it is unmoved by a single scheduler-induced outlier rep.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		d := x - m
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	return Median(dev)
}
