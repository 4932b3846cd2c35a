// Package vec is a software double-precision SIMD ISA.
//
// The paper's optimized kernels are written against the Intel C++ vector
// classes F64vec4 (256-bit AVX on SNB-EP) and F64vec8 (512-bit on KNC),
// which wrap intrinsics with infix-operator syntax so that "the resulting
// code appears practically identical to the scalar code" (Sec. III-B).
// This package is the Go equivalent: Vec is a vector register of up to 8
// doubles, and Ctx selects the active width (4 to model SNB-EP, 8 to model
// KNC) so that one kernel source serves both targets, exactly as the paper
// swaps F64vec4 for F64vec8 between platforms.
//
// Every operation optionally records itself into a perf.Counts, which is
// how kernel variants report the dynamic instruction mixes that
// internal/machine converts into modelled throughput. Counting is skipped
// when Ctx.C is nil, so the same kernels also run at full native speed for
// the wall-clock benchmarks.
//
// Vector arithmetic counts one operation per instruction (not per lane);
// transcendentals count per element, matching the per-element costs in the
// machine model.
package vec // finlint:hot — allocation-free loops enforced by internal/lint

import (
	"fmt"

	"finbench/internal/mathx"
	"finbench/internal/perf"
)

// MaxWidth is the largest supported vector width (KNC's 8 DP lanes).
const MaxWidth = 8

// Vec is one vector register. Lanes beyond the context width are
// dead — operations neither read nor write them, mirroring how 256-bit code
// ignores the upper half of a 512-bit register.
type Vec struct {
	X [MaxWidth]float64
}

// Ctx binds a vector width and an optional operation counter. The zero Ctx
// is invalid; use New.
type Ctx struct {
	// W is the active lane count (4 or 8).
	W int
	// C receives the dynamic operation mix; nil disables accounting.
	C *perf.Counts
}

// New returns a context of the given width (must be a power of two between
// 1 and MaxWidth) with optional counting.
func New(width int, c *perf.Counts) Ctx {
	if width < 1 || width > MaxWidth || width&(width-1) != 0 {
		panic(fmt.Sprintf("vec: invalid width %d", width))
	}
	if c != nil && c.Width == 0 {
		c.Width = width
	}
	return Ctx{W: width, C: c}
}

func (c Ctx) count(op perf.Op, n uint64) {
	if c.C != nil {
		c.C.Add(op, n)
	}
}

// Broadcast returns a vector with s in every lane (vbroadcastsd).
func (c Ctx) Broadcast(s float64) Vec {
	c.count(perf.OpVecMisc, 1)
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = s
	}
	return v
}

// Zero returns the zero vector (vxorpd, counted as a misc op).
func (c Ctx) Zero() Vec {
	c.count(perf.OpVecMisc, 1)
	return Vec{}
}

// Move returns a copy of a, counted as a register move. The paper's
// binomial tiling discussion (Sec. IV-B3) notes that unrolling "eliminates
// the register move", which matters on in-order KNC; kernels use Move
// exactly where the non-unrolled code would need one.
func (c Ctx) Move(a Vec) Vec {
	c.count(perf.OpVecMisc, 1)
	return a
}

// Load loads c.W elements from s starting at off, which the caller
// guarantees is vector-aligned (vmovapd).
func (c Ctx) Load(s []float64, off int) Vec {
	c.count(perf.OpVecLoad, 1)
	var v Vec
	copy(v.X[:c.W], s[off:off+c.W])
	return v
}

// LoadU is an unaligned vector load (vmovupd / vloadunpackld+hd on KNC).
// The reference binomial kernel's Call[j+1] access is the paper's example.
func (c Ctx) LoadU(s []float64, off int) Vec {
	c.count(perf.OpVecLoadU, 1)
	var v Vec
	copy(v.X[:c.W], s[off:off+c.W])
	return v
}

// Store writes c.W lanes to s at aligned offset off.
func (c Ctx) Store(s []float64, off int, v Vec) {
	c.count(perf.OpVecStore, 1)
	copy(s[off:off+c.W], v.X[:c.W])
}

// GatherStride loads lanes from s[base], s[base+stride], ... — the
// AOS access pattern whose cost dominates the reference Black-Scholes on
// KNC (Sec. IV-A3: data "spread across as many as vector length
// cachelines").
func (c Ctx) GatherStride(s []float64, base, stride int) Vec {
	c.count(strideGatherOp(c.W, stride, perf.OpGather, perf.OpGatherNear), 1)
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = s[base+i*stride]
	}
	return v
}

// ScatterStride stores lanes to s[base], s[base+stride], ....
func (c Ctx) ScatterStride(s []float64, base, stride int, v Vec) {
	c.count(strideGatherOp(c.W, stride, perf.OpScatter, perf.OpScatterNear), 1)
	for i := 0; i < c.W; i++ {
		s[base+i*stride] = v.X[i]
	}
}

// strideGatherOp classifies a strided access: unit-or-double strides keep
// every lane inside at most two cache lines that stay L1-resident across
// consecutive accesses (the GSOR wavefront's stride -2 walk), costing
// little even on in-order cores. Wider strides — above all the
// record-stride AOS pattern — touch a fresh line per lane-group and are
// charged the full streaming-gather cost.
func strideGatherOp(w, stride int, far, near perf.Op) perf.Op {
	span := stride
	if span < 0 {
		span = -span
	}
	if w == 1 || (span <= 2 && span*(w-1) < 16) {
		return near // single-lane access degenerates to a scalar load
	}
	return far
}

// Add returns a+b lane-wise.
func (c Ctx) Add(a, b Vec) Vec {
	c.count(perf.OpVecAdd, 1)
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = a.X[i] + b.X[i]
	}
	return v
}

// Sub returns a-b lane-wise.
func (c Ctx) Sub(a, b Vec) Vec {
	c.count(perf.OpVecAdd, 1)
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = a.X[i] - b.X[i]
	}
	return v
}

// Mul returns a*b lane-wise.
func (c Ctx) Mul(a, b Vec) Vec {
	c.count(perf.OpVecMul, 1)
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = a.X[i] * b.X[i]
	}
	return v
}

// Div returns a/b lane-wise.
func (c Ctx) Div(a, b Vec) Vec {
	c.count(perf.OpVecDiv, 1)
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = a.X[i] / b.X[i]
	}
	return v
}

// FMA returns a*b+acc lane-wise, one instruction on KNC, a mul+add pair on
// SNB-EP (the machine model charges it accordingly).
func (c Ctx) FMA(a, b, acc Vec) Vec {
	c.count(perf.OpVecFMA, 1)
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = a.X[i]*b.X[i] + acc.X[i]
	}
	return v
}

// Max returns the lane-wise maximum.
func (c Ctx) Max(a, b Vec) Vec {
	c.count(perf.OpVecMax, 1)
	var v Vec
	for i := 0; i < c.W; i++ {
		if a.X[i] > b.X[i] {
			v.X[i] = a.X[i]
		} else {
			v.X[i] = b.X[i]
		}
	}
	return v
}

// Neg returns -a.
func (c Ctx) Neg(a Vec) Vec {
	c.count(perf.OpVecMisc, 1)
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = -a.X[i]
	}
	return v
}

// ReduceAdd returns the sum of the active lanes (log2(W) shuffle+add
// pairs, counted as such).
func (c Ctx) ReduceAdd(a Vec) float64 {
	n := uint64(0)
	for w := c.W; w > 1; w >>= 1 {
		n++
	}
	c.count(perf.OpVecMisc, n)
	c.count(perf.OpVecAdd, n)
	var s float64
	for i := 0; i < c.W; i++ {
		s += a.X[i]
	}
	return s
}

// Exp applies e**x to each lane (SVML-style vector transcendental;
// counted per element).
func (c Ctx) Exp(a Vec) Vec {
	c.count(perf.OpExp, uint64(c.W))
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = mathx.Exp(a.X[i])
	}
	return v
}

// Log applies the natural logarithm to each lane.
func (c Ctx) Log(a Vec) Vec {
	c.count(perf.OpLog, uint64(c.W))
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = mathx.Log(a.X[i])
	}
	return v
}

// Sqrt applies the square root to each lane.
func (c Ctx) Sqrt(a Vec) Vec {
	c.count(perf.OpSqrt, uint64(c.W))
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = mathx.Sqrt(a.X[i])
	}
	return v
}

// Erf applies the error function to each lane (the SVML erf of the
// optimized Black-Scholes).
func (c Ctx) Erf(a Vec) Vec {
	c.count(perf.OpErf, uint64(c.W))
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = mathx.Erf(a.X[i])
	}
	return v
}

// CND applies the cumulative normal distribution to each lane (the
// reference Black-Scholes cnd()).
func (c Ctx) CND(a Vec) Vec {
	c.count(perf.OpCND, uint64(c.W))
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = mathx.CND(a.X[i])
	}
	return v
}

// LoadRev loads c.W consecutive elements starting at off and reverses
// them: lane i receives s[off+W-1-i]. One aligned load plus a lane-reversal
// shuffle — the access pattern of the reordered (even/odd split) GSOR
// arrays in the Crank-Nicolson kernel, where the wavefront walks the
// arrays backwards.
func (c Ctx) LoadRev(s []float64, off int) Vec {
	c.count(perf.OpVecLoad, 1)
	c.count(perf.OpVecMisc, 1)
	var v Vec
	for i := 0; i < c.W; i++ {
		v.X[i] = s[off+c.W-1-i]
	}
	return v
}

// StoreRev reverses lanes and stores them to s[off:off+W]: the write-back
// counterpart of LoadRev.
func (c Ctx) StoreRev(s []float64, off int, v Vec) {
	c.count(perf.OpVecStore, 1)
	c.count(perf.OpVecMisc, 1)
	for i := 0; i < c.W; i++ {
		s[off+c.W-1-i] = v.X[i]
	}
}
