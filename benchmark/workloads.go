package main

import (
	"time"

	"finbench/internal/serve/coalesce"
)

// workload is one traffic mix and the deployed shape it is driven
// against. Servers run with shipped default flags except the ones a
// workload names here.
type workload struct {
	name string
	// why is the reason the workload exists (also in BENCHMARK.json).
	why string
	// item is the unit throughput_items_s counts.
	item string
	// routed selects `finserve route` over two replicas the benchmark
	// spawns; otherwise a lone `finserve serve`.
	routed bool
	// cacheBytes > 0 gives the router a response cache of that budget
	// (`-cache-tier router -cache-bytes N`).
	cacheBytes int64
	// warmup is the number of warm-up requests sent (and all verified)
	// before the measured window opens.
	warmup int
	// gen builds the inputs for a seed at full size; genSmall builds a
	// few requests of the same shape for the in-process layer replay and
	// the tier-1 smoke tests.
	gen      func(seed uint64) *inputs
	genSmall func(seed uint64) *inputs
}

// Sizing constants the workload table in README.md quotes.
const (
	bulkFrameOptions  = 32768 // >= coalesceMaxBatch, so the coalescer is bypassed
	zipfPool          = 1024
	zipfBatchOptions  = 1024
	zipfDraws         = 1 << 15
	zipfSkew          = 1.0
	zipfCacheBytes    = 8 << 20 // against some 36 MB of distinct responses
	scenarioPositions = 1024
)

var scenarioGrid = [3]int{12, 6, 4}

// serve's shipped coalescer window and flush threshold (its Config
// defaults, which it does not export). A request of at least
// coalesceMaxBatch options bypasses the coalescer.
const (
	coalesceWindow   = 250 * time.Microsecond
	coalesceMaxBatch = 16384
)

func newCoalescer() *coalesce.Coalescer {
	return coalesce.New(market, coalesceWindow, coalesceMaxBatch, 0)
}

var workloads = []*workload{
	{
		name:     "quote_small_json",
		why:      "Interactive path on a lone server: 16-option JSON /price, every 5th a /greeks. net/http, wire JSON, admission and the coalescer window dominate; bypasses cache, router and pool.",
		item:     "option",
		warmup:   512,
		gen:      func(seed uint64) *inputs { return genQuote(seed, 4096) },
		genSmall: func(seed uint64) *inputs { return genQuote(seed, 50) },
	},
	{
		name:     "bulk_columnar",
		why:      "Bulk path on a lone server: binary FBC1 frames of 32768 options bypass the coalescer into the parallel Black-Scholes fork; blackscholes, parallel chunking and columnar wire dominate.",
		item:     "option",
		warmup:   16,
		gen:      func(seed uint64) *inputs { return genBulk(seed, 16, bulkFrameOptions) },
		genSmall: func(seed uint64) *inputs { return genBulk(seed, 2, bulkFrameOptions) },
	},
	{
		name:       "batch_zipf_routed",
		why:        "Cache reads beside cache writes: 1024-option JSON batches drawn Zipf(1.0) from a pool of 1024, via a router with an 8 MiB cache over 2 replicas; hits cost decode+digest, misses hop, insert, evict.",
		item:       "option",
		routed:     true,
		cacheBytes: zipfCacheBytes,
		warmup:     512,
		gen: func(seed uint64) *inputs {
			return genZipf(seed, zipfPool, zipfBatchOptions, zipfDraws, zipfSkew)
		},
		genSmall: func(seed uint64) *inputs { return genZipf(seed, 8, zipfBatchOptions, 16, zipfSkew) },
	},
	{
		name:     "heavy_mix",
		why:      "The paper's kernels under a lone server: 4-option requests, binomial:crank-nicolson:monte-carlo 9:1:1 at default sizes; priceHeavy, deadline, admission units; bypasses cache, coalescer, router.",
		item:     "option",
		warmup:   22,
		gen:      func(seed uint64) *inputs { return genHeavy(seed, 64) },
		genSmall: func(seed uint64) *inputs { return genHeavy(seed, 1) },
	},
	{
		name:     "scenario_grid_routed",
		why:      "Scatter-gather: /scenario of 1024 positions over a 12x6x4 shock grid through a cache-less router over 2 replicas; partition, two hops, grid pricing, merge and the compensated reduce.",
		item:     "valuation",
		routed:   true,
		warmup:   8,
		gen:      func(seed uint64) *inputs { return genScenario(seed, 8, scenarioPositions, scenarioGrid) },
		genSmall: func(seed uint64) *inputs { return genScenario(seed, 12, 128, [3]int{3, 2, 2}) },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
