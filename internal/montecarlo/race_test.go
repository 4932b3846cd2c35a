package montecarlo

// Race exercise tests: the Monte Carlo kernels parallelize internally
// (parallel.For across options) and are also meant to be callable from
// concurrent request handlers, each on its own batch. Running both levels
// of concurrency at once under `go test -race` gives the detector real
// traffic over the shared normal buffer (read-only by contract) and the
// per-worker RNG streams.

import (
	"sync"
	"testing"

	"finbench/internal/perf"
)

// TestRaceConcurrentBatchPricing prices independent batches from several
// goroutines at once, mixing the streamed kernel (sharing one read-only
// normal buffer across all goroutines and all their workers) with the
// compute-RNG kernel (per-worker streams seeded per goroutine).
func TestRaceConcurrentBatchPricing(t *testing.T) {
	z := normals(1<<12, 3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			streamed := batch(16)
			Vectorized(streamed, z, mkt, 8, 2, nil)
			computed := batch(16)
			VectorizedComputeRNG(computed, 2048, uint64(g+1), mkt, 8, 2, nil)
			for i := range streamed.Price {
				// A deep-OTM option can price to exactly 0 with stderr 0;
				// only NaN or negative values indicate corruption.
				if !(streamed.Price[i] >= 0 && streamed.StdErr[i] >= 0 &&
					computed.Price[i] >= 0 && computed.StdErr[i] >= 0) {
					t.Errorf("goroutine %d option %d: corrupt result", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRaceCountsMerge exercises the mutex-guarded perf.Counts merge path
// (parallel.Region with a non-nil counter) concurrently: each goroutine owns
// its counter, while the kernel's internal workers merge into it.
func TestRaceCountsMerge(t *testing.T) {
	z := normals(1<<10, 5)
	var wg sync.WaitGroup
	counts := make([]perf.Counts, 4)
	for g := range counts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := batch(32)
			RefScalar(b, z, mkt, &counts[g])
		}(g)
	}
	wg.Wait()
	for g, c := range counts {
		if c.Items == 0 {
			t.Errorf("goroutine %d: no items recorded", g)
		}
	}
}
