package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host microkernels: what this machine permits, measured in the same run
// as the kernels that are set against it. On a shared VM they also put
// speed drift on the record next to every other number.

// llcBytes reads the largest cache cpu0 reports; 0 when sysfs has none.
func llcBytes() int64 {
	var best int64
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size") // the pattern is constant and well-formed
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// memAvailableBytes reads MemAvailable from /proc/meminfo; 0 if absent.
func memAvailableBytes() int64 {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "MemAvailable:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64) // a malformed line reads as 0
				return kb << 10
			}
		}
	}
	return 0
}

// forChunks runs fn over [0,n) split across p goroutines.
func forChunks(n, p int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		lo, hi := n*w/p, n*(w+1)/p
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// triadArrayCap bounds one triad array. First touch of fresh memory costs
// about 3 s per GB on the VM class this runs on, and a traced run has a
// fixed budget; three 256 MiB arrays streamed in turn still leave no
// reuse for a cache smaller than their 768 MiB sum.
const triadArrayCap = 256 << 20

// streamTriad measures a[i] = b[i] + s*c[i] over arrays of four times the
// last-level cache (so the traffic is to memory, not cache), capped at
// triadArrayCap and at an eighth of available memory each. It returns
// GB/s counting the 24 bytes per element the loop names, and both sizes
// in MB so a reader sees when a cap binds.
func streamTriad(p int) (gbs, arrayMB, llcMB float64) {
	llc := llcBytes()
	bytes := min(max(4*llc, 64<<20), triadArrayCap)
	if avail := memAvailableBytes(); avail > 0 {
		bytes = min(bytes, avail/8)
	}
	n := int(bytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	// Hand the arrays back when done: left to the pacer, three of them
	// would sit in the heap through every later measurement.
	defer debug.FreeOSMemory()
	forChunks(n, p, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b[i], c[i] = 1, 2
		}
	})
	triad := func() {
		forChunks(n, p, func(lo, hi int) {
			x, y, z := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range x {
				x[i] = y[i] + 3*z[i]
			}
		})
	}
	triad() // first touch of a
	best := math.Inf(1)
	for r := 0; r < 2; r++ {
		start := time.Now()
		triad()
		best = min(best, time.Since(start).Seconds())
	}
	return 24 * float64(n) / best / 1e9, float64(bytes) / 1e6, float64(llc) / 1e6
}

// fmaGflops measures scalar fused multiply-add throughput: eight
// independent dependency chains per goroutine, two flops per FMA. Go has
// no vector FMA, so this is the scalar peak the host kernels can reach.
func fmaGflops(p int) float64 {
	const iters = 1 << 22
	sinks := make([]float64, p)
	start := time.Now()
	forChunks(p, p, func(lo, _ int) {
		x0, x1, x2, x3, x4, x5, x6, x7 := 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8
		const m, a = 0.999999, 1e-9
		for i := 0; i < iters; i++ {
			x0 = math.FMA(x0, m, a)
			x1 = math.FMA(x1, m, a)
			x2 = math.FMA(x2, m, a)
			x3 = math.FMA(x3, m, a)
			x4 = math.FMA(x4, m, a)
			x5 = math.FMA(x5, m, a)
			x6 = math.FMA(x6, m, a)
			x7 = math.FMA(x7, m, a)
		}
		sinks[lo] = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
	})
	return 2 * 8 * iters * float64(p) / time.Since(start).Seconds() / 1e9
}

// host fills the in-process host metrics (load, build time, calibration
// and server RSS are set by the traced run, which observed them).
func (l *layers) host() {
	p := runtime.NumCPU()
	l.m.set("host.nproc", float64(p))
	gbs, arrayMB, llcMB := streamTriad(p)
	l.m.set("host.stream_triad_gb_s", gbs)
	l.m.set("host.stream_array_mb", arrayMB)
	l.m.set("host.llc_mb", llcMB)
	l.m.set("host.fma_gflops", fmaGflops(p))
}
