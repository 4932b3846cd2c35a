package parallel

import (
	"context"
	"sync/atomic"
	"testing"

	"finbench/internal/perf"
)

// The small-batch benchmarks time the dispatch overhead of one parallel
// region over little work — the regime where an OpenMP runtime's
// persistent thread team beats spawn-per-call goroutines (cf. the paper's
// per-region `#pragma omp for`, Sec. III-B). Run with -cpu 1,4,8 to see
// the overhead at several worker counts.

// tinyWork simulates a cheap per-item kernel body.
func tinyWork(lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		s += float64(i&7) * 0.5
	}
	return s
}

var benchSink atomic.Int64

func benchFor(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(n, func(lo, hi int) {
			_ = tinyWork(lo, hi)
		})
	}
	benchSink.Add(1)
}

func BenchmarkForSmall64(b *testing.B)   { benchFor(b, 64) }
func BenchmarkForSmall512(b *testing.B)  { benchFor(b, 512) }
func BenchmarkForSmall4096(b *testing.B) { benchFor(b, 4096) }

func BenchmarkRegionSmall512(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_ = Region(ctx, 512, 8, nil, func(lo, hi int, _ *perf.Counts) {
			_ = tinyWork(lo, hi)
		})
	}
	benchSink.Add(1)
}

func BenchmarkReduceFloat64Small512(b *testing.B) {
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += ReduceFloat64(512, 64, tinyWork)
	}
	if acc < 0 {
		b.Fatal("impossible")
	}
}
