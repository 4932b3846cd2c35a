// Package layout provides the option-batch data layouts whose contrast is
// central to the paper: array-of-structures (AOS), the natural reference
// format whose strided accesses force gathers, and structure-of-arrays
// (SOA), the SIMD-friendly format the advanced kernels convert to
// (Sec. IV-A2: "we have transposed the data layout (from AOS to SOA)").
//
// A third, lane-blocked AOSOA layout serves the SIMD-across-options kernels
// (binomial tree), where each group of W options is interleaved so one
// option occupies one SIMD lane.
package layout

// Field offsets of one option record in packed AOS form, matching the
// paper's struct {S, X, T, call, put} of Lis. 1: three inputs, two outputs,
// five doubles (40 bytes) per option — the basis of the B/40 bandwidth
// bound.
const (
	FieldS    = 0 // current underlying price
	FieldX    = 1 // strike price
	FieldT    = 2 // time to expiry in years
	FieldCall = 3 // output: call price
	FieldPut  = 4 // output: put price
	// Stride is the number of doubles per AOS record.
	Stride = 5
)

// AOS is a packed array-of-structures option batch: record i occupies
// Data[i*Stride : (i+1)*Stride]. Packing into a flat []float64 (rather than
// a []struct) is what lets the vector ISA express the strided gathers the
// reference kernels perform.
type AOS struct {
	Data []float64
}

// NewAOS allocates an AOS batch of n options.
func NewAOS(n int) AOS { return AOS{Data: make([]float64, n*Stride)} }

// Len returns the number of options.
func (a AOS) Len() int { return len(a.Data) / Stride }

// S returns the spot price of option i.
func (a AOS) S(i int) float64 { return a.Data[i*Stride+FieldS] }

// X returns the strike price of option i.
func (a AOS) X(i int) float64 { return a.Data[i*Stride+FieldX] }

// T returns the expiry of option i.
func (a AOS) T(i int) float64 { return a.Data[i*Stride+FieldT] }

// Call returns the call-price output slot of option i.
func (a AOS) Call(i int) float64 { return a.Data[i*Stride+FieldCall] }

// Put returns the put-price output slot of option i.
func (a AOS) Put(i int) float64 { return a.Data[i*Stride+FieldPut] }

// Set fills the input fields of option i.
func (a AOS) Set(i int, s, x, t float64) {
	a.Data[i*Stride+FieldS] = s
	a.Data[i*Stride+FieldX] = x
	a.Data[i*Stride+FieldT] = t
}

// SetResult fills the output fields of option i.
func (a AOS) SetResult(i int, call, put float64) {
	a.Data[i*Stride+FieldCall] = call
	a.Data[i*Stride+FieldPut] = put
}

// SOA is the structure-of-arrays batch: each field is contiguous, so a
// vector load touches one cache line instead of W.
type SOA struct {
	S, X, T   []float64
	Call, Put []float64
}

// NewSOA allocates an SOA batch of n options.
func NewSOA(n int) *SOA {
	return &SOA{
		S:    make([]float64, n),
		X:    make([]float64, n),
		T:    make([]float64, n),
		Call: make([]float64, n),
		Put:  make([]float64, n),
	}
}

// Len returns the number of options.
func (s *SOA) Len() int { return len(s.S) }

// ToSOA transposes the batch into SOA form (the paper's key Black-Scholes
// optimization).
func (a AOS) ToSOA() *SOA {
	n := a.Len()
	s := NewSOA(n)
	for i := 0; i < n; i++ {
		s.S[i] = a.S(i)
		s.X[i] = a.X(i)
		s.T[i] = a.T(i)
		s.Call[i] = a.Call(i)
		s.Put[i] = a.Put(i)
	}
	return s
}

// PadTo returns n rounded up to a multiple of w (SIMD remainder padding).
func PadTo(n, w int) int {
	if w <= 1 {
		return n
	}
	return (n + w - 1) / w * w
}
