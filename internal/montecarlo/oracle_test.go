package montecarlo

// Oracle for the host path: SharedStreamCtx must price every option of a
// request exactly as the counted Table II kernel prices it alone —
// VectorizedComputeRNGCtx on a one-option batch at width 8, unroll 2,
// i.e. on stream (0, seed) through the software vector ISA — whatever
// else is in the request.

import (
	"context"
	"math"
	"testing"

	"finbench/internal/workload"
)

func TestSharedStreamMatchesSingleOptionVectorized(t *testing.T) {
	// Seven contracts: at, in and out of the money, a deep-OTM one whose
	// payoff clamps on most paths, short and long expiries.
	all := &workload.MCBatch{
		S: []float64{100, 100, 100, 60, 140, 100, 87.5},
		X: []float64{100, 90, 110, 100, 100, 250, 93.25},
		T: []float64{1, 0.25, 2, 0.5, 3, 1, 0.01},
	}
	type key struct {
		opt, npath int
		seed       uint64
	}
	alone := map[key]Result{}
	want := func(i, npath int, seed uint64) Result {
		k := key{i, npath, seed}
		if r, ok := alone[k]; ok {
			return r
		}
		b := &workload.MCBatch{
			S: all.S[i : i+1], X: all.X[i : i+1], T: all.T[i : i+1],
			Price: make([]float64, 1), StdErr: make([]float64, 1),
		}
		if err := VectorizedComputeRNGCtx(context.Background(), b, npath, seed, mkt, 8, 2, nil); err != nil {
			t.Fatal(err)
		}
		alone[k] = Result{b.Price[0], b.StdErr[0]}
		return alone[k]
	}
	// Path counts below one vector block, a whole number of chunks, one
	// path into the next chunk, a ragged tail, and the default size.
	for _, npath := range []int{13, 4096, 4097, 5000, 262144} {
		for _, seed := range []uint64{1, 0xfeedface} {
			for _, k := range []int{1, 2, 4, 7} {
				b := &workload.MCBatch{
					S: all.S[:k], X: all.X[:k], T: all.T[:k],
					Price: make([]float64, k), StdErr: make([]float64, k),
				}
				if err := SharedStreamCtx(context.Background(), b, npath, seed, mkt); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k; i++ {
					w := want(i, npath, seed)
					if math.Float64bits(b.Price[i]) != math.Float64bits(w.Price) || math.Float64bits(b.StdErr[i]) != math.Float64bits(w.StdErr) {
						t.Errorf("npath %d seed %#x k %d option %d: %.17g ± %.17g, alone on the stream %.17g ± %.17g",
							npath, seed, k, i, b.Price[i], b.StdErr[i], w.Price, w.StdErr)
					}
				}
			}
		}
	}
}

// A context that is cancelled when the path loop first polls it must stop
// the request within one RNGChunk of normals. The path count is far more
// than one chunk and still fits a 32-bit int.
func TestSharedStreamStopsWithinOneChunk(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := batch(3)
	if err := SharedStreamCtx(ctx, b, 1<<30, 1, mkt); err != context.Canceled {
		t.Fatalf("cancelled request returned %v", err)
	}
}
