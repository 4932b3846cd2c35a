package finbench

import (
	"context"
	"fmt"

	"finbench/internal/perf"
)

// OptLevel selects the optimization level of the batch pricing engines,
// mirroring the paper's methodology (Sec. III-B).
type OptLevel int

const (
	// LevelBasic is the compiler-only reference: scalar-equivalent code
	// over AOS data.
	LevelBasic OptLevel = iota
	// LevelIntermediate applies SIMD across work items with minor code
	// changes (the F64vec8-style outer-loop vectorization).
	LevelIntermediate
	// LevelAdvanced adds the algorithmic restructurings: AOS-to-SOA
	// transposition, VML-style batching, tiling.
	LevelAdvanced
)

// String names the level.
func (l OptLevel) String() string {
	switch l {
	case LevelBasic:
		return "basic"
	case LevelIntermediate:
		return "intermediate"
	case LevelAdvanced:
		return "advanced"
	default:
		return fmt.Sprintf("finbench.OptLevel(%d)", int(l))
	}
}

// Batch is a European option batch for the high-throughput closed-form
// engine. Create one with NewBatch, fill the inputs, call PriceBatch, and
// read Calls/Puts.
type Batch struct {
	// Spots, Strikes and Expiries are the per-option inputs.
	Spots, Strikes, Expiries []float64
	// Calls and Puts receive the prices.
	Calls, Puts []float64
}

// NewBatch allocates a batch of n options.
func NewBatch(n int) *Batch {
	return &Batch{
		Spots:    make([]float64, n),
		Strikes:  make([]float64, n),
		Expiries: make([]float64, n),
		Calls:    make([]float64, n),
		Puts:     make([]float64, n),
	}
}

// Len returns the option count.
func (b *Batch) Len() int { return len(b.Spots) }

// PriceBatch prices every option in the batch with the Black-Scholes
// closed form at the given optimization level, in parallel across all
// CPUs. All three levels produce prices agreeing to ~1e-10; they differ in
// data layout and instruction mix exactly as the paper's Fig. 4 variants
// do (and as the wall-clock benchmarks demonstrate).
func PriceBatch(b *Batch, m Market, level OptLevel) error {
	return PriceBatchCtx(context.Background(), b, m, level)
}

// OperationMix is the dynamic operation profile of a batch run, usable
// with the machine models (re-exported from internal/perf).
type OperationMix = perf.Counts

// ProfileBatch prices the batch like PriceBatch while recording the
// dynamic operation mix at the given SIMD width (4 models SNB-EP, 8 models
// KNC); used by the modelling harness and exposed for custom experiments.
func ProfileBatch(b *Batch, m Market, level OptLevel, width int) (OperationMix, error) {
	var c perf.Counts
	err := priceBatch(context.Background(), b, m, level, width, &c)
	return c, err
}
