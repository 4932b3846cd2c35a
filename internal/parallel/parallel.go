// Package parallel provides the OpenMP-style loop parallelism the paper's
// kernels use ("#pragma omp for thread-level parallelism", Sec. III-B).
// All six benchmarks parallelize across independent work items (options,
// paths, simulations) with SIMD inside each chunk, so one static
// decomposition covers every kernel: Region is the counted, cancellable
// form the kernels call, and For and ReduceFloat64 are its plain and
// reducing forms.
//
// Seams are multiples of align; outputs and op counts are invariant under
// worker count. A lane kernel passes its SIMD width as align, so no
// vector group straddles two chunks and only the last chunk can end in a
// scalar remainder — exactly the single-worker shape — while group- and
// option-indexed kernels pass 1. (Kernels that key an RNG stream on the
// chunk start are the documented exception for outputs, never for
// counts.)
//
// Like an OpenMP runtime, the loops execute on a persistent fork-join
// worker pool (see pool.go): workers are started lazily on first use and
// then parked between regions, so a small-batch region pays a wake-up,
// not goroutine creation. Chunks run in slot order with dense slot ids,
// and counts and reductions are combined in slot order, so results are
// deterministic.
package parallel

import (
	"context"
	"runtime"

	"finbench/internal/perf"
)

// Workers returns the worker count used by the loops: GOMAXPROCS, the Go
// analogue of OMP_NUM_THREADS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// static is the package's one static decomposition (OpenMP
// schedule(static)): [0,n) is cut into at most `workers` contiguous
// chunks whose common size is rounded up to a multiple of align, and
// fn(slot, lo, hi) runs once per chunk, slot 0 on the caller. A single
// chunk runs inline without touching the pool. n, workers and align are
// all at least 1.
func static(n, workers, align int, fn func(slot, lo, hi int)) {
	chunk := (n + workers - 1) / workers
	chunk = (chunk + align - 1) / align * align
	if chunk >= n {
		defaultPool.serial.Add(1)
		fn(0, 0, n)
		return
	}
	defaultPool.run((n+chunk-1)/chunk, func(slot int) {
		lo := slot * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(slot, lo, hi)
	})
}

// For runs fn over [0,n) split into one contiguous chunk per worker. fn
// is called with disjoint [lo,hi) ranges from multiple goroutines; For
// returns when all complete. A nil fn or n <= 0 is a no-op.
func For(n int, fn func(lo, hi int)) {
	if n <= 0 || fn == nil {
		return
	}
	static(n, Workers(), 1, func(_, lo, hi int) { fn(lo, hi) })
}

// Region is the kernels' parallel region: For with chunk seams on
// multiples of align (at least 1), a private perf.Counts per chunk merged into c in
// slot order once the loop completes (a nil c runs fn with nil counts,
// the kernels' uncounted fast path), and cancellation checked before
// each chunk starts — chunks already running finish normally, and the
// kernels add finer checkpoints inside their own loops. It returns
// ctx.Err() if the region was cancelled, even when every chunk happened
// to complete first: callers must treat the output as partial. A context
// that cannot be cancelled costs nothing extra.
func Region(ctx context.Context, n, align int, c *perf.Counts, fn func(lo, hi int, c *perf.Counts)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 || fn == nil {
		return nil
	}
	done := ctx.Done()
	workers := Workers()
	var locals []perf.Counts
	if c != nil {
		locals = make([]perf.Counts, workers)
	}
	static(n, workers, align, func(slot, lo, hi int) {
		if done != nil {
			select {
			case <-done:
				return
			default:
			}
		}
		var local *perf.Counts
		if c != nil {
			local = &locals[slot]
		}
		fn(lo, hi, local)
	})
	for i := range locals {
		c.Merge(locals[i])
	}
	return ctx.Err()
}

// ReduceFloat64 computes the sum of fn over the blocks [k*block,
// (k+1)*block) of [0, n), the last one short: each call returns one
// block's partial value, and the partials are summed in block order, so
// the result does not depend on the worker count. A worker runs a
// contiguous run of blocks in order.
func ReduceFloat64(n, block int, fn func(lo, hi int) float64) float64 {
	if n <= 0 || fn == nil {
		return 0
	}
	if block < 1 {
		block = 1
	}
	partials := make([]float64, (n+block-1)/block)
	static(len(partials), Workers(), 1, func(_, blo, bhi int) {
		for k := blo; k < bhi; k++ {
			partials[k] = fn(k*block, min((k+1)*block, n))
		}
	})
	var sum float64
	for _, p := range partials {
		sum += p
	}
	return sum
}
