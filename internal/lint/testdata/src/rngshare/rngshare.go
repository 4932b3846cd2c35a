// Package rngshare holds seeded violations and clean counterparts for the
// rngshare pass. Lines marked "seeded violation" appear in rngshare.golden.
package rngshare

import (
	"context"
	"math/rand"
	"time"

	"finbench"
	"finbench/internal/parallel"
	"finbench/internal/perf"
	"finbench/internal/resilience"
	"finbench/internal/rng"
	"finbench/internal/scenario"
	"finbench/internal/serve/pricecache"
	"finbench/internal/serve/stream"
	"finbench/internal/serve/stream/ticker"
)

// BadSharedStream captures one stream in the closure: every worker would
// advance the same MT19937 state concurrently.
func BadSharedStream(dst []float64, seed uint64) {
	stream := rng.NewStream(0, seed)
	parallel.For(len(dst), func(lo, hi int) {
		stream.Uniform(dst[lo:hi]) // seeded violation
	})
}

// BadSharedRand captures a *math/rand.Rand across For goroutines.
func BadSharedRand(dst []float64, r *rand.Rand) {
	parallel.For(len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = r.Float64() // seeded violation
		}
	})
}

// GoodPerWorker derives an independent stream inside the closure — the
// paper's one-stream-per-thread design. Not flagged.
func GoodPerWorker(dst []float64, seed uint64) {
	parallel.For(len(dst), func(lo, hi int) {
		stream := rng.NewStream(lo, seed)
		stream.Uniform(dst[lo:hi])
	})
}

// GoodSequential uses a stream outside any parallel closure. Not flagged.
func GoodSequential(dst []float64, seed uint64) {
	stream := rng.NewStream(0, seed)
	stream.Uniform(dst)
}

// IgnoredShared documents a deliberate capture: draw serializes access.
func IgnoredShared(dst []float64, seed uint64, draw func(*rng.Stream, []float64)) {
	stream := rng.NewStream(0, seed)
	parallel.For(len(dst), func(lo, hi int) {
		// finlint:ignore rngshare draw serializes stream access behind a mutex
		draw(stream, dst[lo:hi])
	})
}

// BadSharedStreamCtx captures one stream in a closure handed to a
// cancellable loop — the coalescer-flush shape: a server goroutine builds
// a mega-batch, grabs a stream for it, and prices under a deadline. The
// region runs the closure on exactly as many goroutines as For does.
func BadSharedStreamCtx(ctx context.Context, dst []float64, seed uint64) error {
	stream := rng.NewStream(0, seed)
	return parallel.Region(ctx, len(dst), 1, nil, func(lo, hi int, _ *perf.Counts) {
		stream.Uniform(dst[lo:hi]) // seeded violation
	})
}

// BadSharedRandMergedCtx captures a *math/rand.Rand across the
// counter-merging cancellable region.
func BadSharedRandMergedCtx(ctx context.Context, dst []float64, r *rand.Rand, c *perf.Counts) error {
	return parallel.Region(ctx, len(dst), 8, c, func(lo, hi int, local *perf.Counts) {
		for i := lo; i < hi; i++ {
			dst[i] = r.Float64() // seeded violation
		}
	})
}

// GoodPerWorkerCtx derives the stream inside the cancellable closure. Not
// flagged.
func GoodPerWorkerCtx(ctx context.Context, dst []float64, seed uint64, c *perf.Counts) error {
	return parallel.Region(ctx, len(dst), 8, c, func(lo, hi int, local *perf.Counts) {
		stream := rng.NewStream(lo, seed)
		stream.Uniform(dst[lo:hi])
	})
}

// BadSharedRandRetry captures a *math/rand.Rand in a retried op: a
// second attempt continues the first attempt's sequence, so the "same"
// operation computes different numbers per retry — and the closure
// shares the generator with whatever else holds it.
func BadSharedRandRetry(ctx context.Context, dst []float64, r *rand.Rand) error {
	return resilience.Retry(ctx, 3, resilience.Backoff{}, nil, func(ctx context.Context, attempt int) error {
		for i := range dst {
			dst[i] = r.Float64() // seeded violation
		}
		return nil
	})
}

// BadSharedStreamSingleflight captures one stream in the compute closure
// handed to the pricing cache's singleflight: concurrent leaders for
// different keys advance the same twister, and a compute re-dispatched
// after a failed leader continues the prior attempt's sequence — the
// divergent bytes would then be cached and fanned out to every waiter.
func BadSharedStreamSingleflight(ctx context.Context, c *pricecache.Cache, key pricecache.Key, dst []float64, seed uint64) error {
	stream := rng.NewStream(0, seed)
	_, _, err := c.Do(ctx, key, func(ctx context.Context) ([]byte, bool, error) {
		stream.Uniform(dst) // seeded violation
		return nil, false, nil
	})
	return err
}

// GoodPerComputeSingleflight derives the stream inside the compute
// closure from the key's seed: every execution — leader or re-dispatched
// waiter — draws the same reproducible sequence. Not flagged.
func GoodPerComputeSingleflight(ctx context.Context, c *pricecache.Cache, key pricecache.Key, dst []float64, seed uint64) error {
	_, _, err := c.Do(ctx, key, func(ctx context.Context) ([]byte, bool, error) {
		stream := rng.NewStream(0, seed)
		stream.Uniform(dst)
		return nil, false, nil
	})
	return err
}

// BadSharedStreamScatter captures one stream in a scenario scatter
// closure: partitions evaluate on concurrent goroutines, so the twister
// state races and the merged surface depends on scheduling — the exact
// nondeterminism the engine's byte-identity contract forbids.
func BadSharedStreamScatter(ctx context.Context, parts []scenario.Partition, dst []float64, seed uint64) error {
	stream := rng.NewStream(0, seed)
	return scenario.Scatter(ctx, parts, func(ctx context.Context, p scenario.Partition) error {
		stream.Uniform(dst[p.Start : p.Start+p.Count]) // seeded violation
		return nil
	})
}

// GoodPerPartitionScatter derives the stream inside the closure from the
// partition's first cell: any process evaluating any partition draws the
// same reproducible sequence, so the merge is deterministic. Not flagged.
func GoodPerPartitionScatter(ctx context.Context, parts []scenario.Partition, dst []float64, seed uint64) error {
	return scenario.Scatter(ctx, parts, func(ctx context.Context, p scenario.Partition) error {
		s := rng.NewStream(0, rng.DeriveSeed(seed, uint64(p.Start)))
		s.Uniform(dst[p.Start : p.Start+p.Count])
		return nil
	})
}

// BadSharedStreamReprice captures one stream in the streaming hub's
// RepriceFunc: the closure runs on the repricing-loop goroutine every
// tick, racing the constructor's goroutine on the twister state — and
// the feed's values would no longer bit-match a cold repricing.
func BadSharedStreamReprice(dst []float64, seed uint64) *stream.Hub {
	s := rng.NewStream(0, seed)
	return stream.New(stream.Config{}, func(ctx context.Context, b *finbench.Batch, m finbench.Market) error {
		s.Uniform(dst) // seeded violation
		return finbench.PriceBatchCtx(ctx, b, m, finbench.LevelAdvanced)
	})
}

// GoodClosedFormReprice needs no RNG at all — the closed-form engines the
// feed is restricted to are deterministic by construction. Not flagged.
func GoodClosedFormReprice() *stream.Hub {
	return stream.New(stream.Config{}, func(ctx context.Context, b *finbench.Batch, m finbench.Market) error {
		return finbench.PriceBatchCtx(ctx, b, m, finbench.LevelAdvanced)
	})
}

// BadSharedRandTick captures a *math/rand.Rand in the ticker's per-tick
// callback: the callback fires on the ticker goroutine, racing whatever
// launched Run — and the walk stops being seed-reproducible.
func BadSharedRandTick(src *ticker.Source, stop <-chan struct{}, r *rand.Rand, jitter []float64) {
	ticker.Run(src, time.Millisecond, stop, func(st *ticker.State) {
		jitter[0] = r.Float64() // seeded violation
	})
}

// GoodDeterministicTick consumes only the seed-deterministic State the
// Source hands it. Not flagged.
func GoodDeterministicTick(src *ticker.Source, stop <-chan struct{}, deposit func(*ticker.State)) {
	ticker.Run(src, time.Millisecond, stop, func(st *ticker.State) {
		deposit(st)
	})
}
