package parallel

// Race exercise tests: these are shaped so that `go test -race` actually
// has concurrent memory traffic to inspect. They encode the paper's
// one-RNG-stream-per-worker discipline (Sec. IV-D3) as executable checks —
// the same invariant the finlint rngshare pass enforces statically.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"finbench/internal/perf"
	"finbench/internal/rng"
)

// TestRacePerWorkerStreams runs the sanctioned pattern repeatedly: each
// worker derives its own stream inside the closure and fills a disjoint
// range. Any accidental sharing introduced here would trip the race
// detector immediately.
func TestRacePerWorkerStreams(t *testing.T) {
	const n = 1 << 14
	dst := make([]float64, n)
	for round := 0; round < 8; round++ {
		For(n, func(lo, hi int) {
			stream := rng.NewStream(lo, 42) // keyed on the chunk start, as the kernels do
			stream.NormalICDF(dst[lo:hi])
		})
	}
	var nonzero int
	for _, v := range dst {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < n/2 {
		t.Fatalf("only %d/%d elements written", nonzero, n)
	}
}

// TestRacePerWorkerStreamsDeterministic pins that the per-worker pattern
// is reproducible: two runs with the same seed and worker count produce
// bit-identical output (exact comparison is intended — same stream, same
// transform, same lanes).
func TestRacePerWorkerStreamsDeterministic(t *testing.T) {
	const n, workers = 1 << 12, 4
	run := func() []float64 {
		dst := make([]float64, n)
		static(n, workers, 1, func(slot, lo, hi int) {
			stream := rng.NewStream(slot, 7)
			stream.Uniform(dst[lo:hi])
		})
		return dst
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestRacePoolStress hammers the persistent pool from many goroutines at
// once: concurrent submitters, every loop form, and nested regions.
// Under -race this exercises the queue, the cond-parked workers, and the
// helping join against each other.
func TestRacePoolStress(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const submitters = 8
	var wg sync.WaitGroup
	var total int64
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				switch (s + round) % 4 {
				case 0:
					For(300, func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) })
				case 1:
					_ = Region(context.Background(), 300, 8, nil, func(lo, hi int, _ *perf.Counts) {
						atomic.AddInt64(&total, int64(hi-lo))
					})
				case 2:
					// Counted: per-slot counts merged in slot order.
					var c perf.Counts
					_ = Region(context.Background(), 300, 3, &c, func(lo, hi int, local *perf.Counts) {
						local.Items += uint64(hi - lo)
					})
					atomic.AddInt64(&total, int64(c.Items))
				case 3:
					// Nested: an outer region whose tasks open inner regions.
					For(4, func(olo, ohi int) {
						for o := olo; o < ohi; o++ {
							atomic.AddInt64(&total, int64(ReduceFloat64(75, 8, func(lo, hi int) float64 {
								return float64(hi - lo)
							})))
						}
					})
				}
			}
		}(s)
	}
	wg.Wait()
	want := int64(submitters * 20 * 300)
	if total != want {
		t.Fatalf("stress total = %d, want %d", total, want)
	}
	d := Sched()
	if d.Dispatched != d.Handoffs+d.Steals {
		t.Fatalf("pool counters unbalanced after stress: %v", d)
	}
}

// TestRaceForSharedAccumulator has every chunk of a multi-worker For
// merge its partial sum into one total under a mutex.
func TestRaceForSharedAccumulator(t *testing.T) {
	const n = 1 << 15
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	var mu sync.Mutex
	var total float64
	For(n, func(lo, hi int) {
		var local float64
		for i := lo; i < hi; i++ {
			local += float64(i)
		}
		mu.Lock()
		total += local
		mu.Unlock()
	})
	want := float64(n) * float64(n-1) / 2
	if total != want {
		t.Fatalf("sum = %g, want %g", total, want)
	}
}
