// Package machine models the two architectures studied in the paper — the
// Intel Xeon E5-2680 ("SNB-EP") and the Intel Xeon Phi Knights Corner
// coprocessor ("KNC") — and predicts kernel execution time from the dynamic
// operation mixes collected by internal/perf.
//
// The model is the same style of reasoning the paper applies in Sec. IV:
// a per-core issue-rate model for compute (each operation class has a
// reciprocal-throughput cost in cycles), combined with a STREAM-bandwidth
// model for memory, taking the max of the two (roofline). Machine
// parameters are Table I verbatim; per-op costs are derived from the two
// microarchitectures (dual-issue mul/add on SNB-EP, single vector pipe with
// FMA on KNC) and calibrated once against the paper's stated anchor points
// (the shape assertions in internal/bench/bench_test.go), then held fixed
// for every experiment.
package machine

import (
	"fmt"
	"strings"

	"finbench/internal/perf"
)

// Machine describes one modelled architecture.
type Machine struct {
	// Name is the short identifier used throughout the paper ("SNB-EP",
	// "KNC").
	Name string
	// FullName is the marketing name from Table I.
	FullName string

	Sockets        int
	CoresPerSocket int
	// SMT is the number of hardware threads per core (2 on SNB-EP, 4 on
	// KNC). The per-op costs below assume enough threads per core to reach
	// steady-state issue rates, which both papers' runs and ours use.
	SMT int

	ClockGHz float64
	// SIMDWidthDP is the number of double-precision lanes per vector
	// register: 4 for 256-bit AVX, 8 for the 512-bit KNC vector ISA.
	SIMDWidthDP int
	// HasFMA reports fused multiply-add support. KNC has FMA; SNB-EP (AVX,
	// pre-AVX2) issues separate multiplies and adds on separate ports.
	HasFMA bool
	// OutOfOrder reports an out-of-order core. The cost tables already fold
	// in the consequences (cheap register moves and unaligned loads on
	// SNB-EP, full price on in-order KNC).
	OutOfOrder bool

	L1KB, L2KB, L3KB int
	DRAMGB           float64
	// StreamBW is the measured STREAM bandwidth from Table I in GB/s.
	StreamBW float64
	// PCIeBW is the host link bandwidth in GB/s (0 when not applicable).
	PCIeBW float64

	// PeakDPGFLOPs / PeakSPGFLOPs are the Table I peak numbers. Note the
	// paper computes KNC peaks with 61 cores (the card reserves one core
	// for the OS during measurement but counts it for peak): 61 x 8 lanes x
	// 2 flops (FMA) x 1.09 GHz = 1063 DP GFLOP/s.
	PeakDPGFLOPs float64
	PeakSPGFLOPs float64

	// Cost is the reciprocal throughput, in cycles per dynamic operation of
	// each class, charged per core. Vector-op costs are per instruction
	// (not per lane); transcendental and RNG costs are per element so that
	// scalar and vector kernels are charged consistently (a vector exp call
	// is counted once per lane by internal/vec).
	Cost [perf.NumOps]float64
}

// Cores returns the total physical core count.
func (m *Machine) Cores() int { return m.Sockets * m.CoresPerSocket }

// Threads returns the total hardware thread count.
func (m *Machine) Threads() int { return m.Cores() * m.SMT }

// SNBEP returns the model of the dual-socket Intel Xeon E5-2680 system
// (Table I, left column).
func SNBEP() *Machine {
	m := &Machine{
		Name:           "SNB-EP",
		FullName:       "Intel Xeon Processor E5-2680 (Sandy Bridge-EP)",
		Sockets:        2,
		CoresPerSocket: 8,
		SMT:            2,
		ClockGHz:       2.7,
		SIMDWidthDP:    4,
		HasFMA:         false,
		OutOfOrder:     true,
		L1KB:           32,
		L2KB:           256,
		L3KB:           20480,
		DRAMGB:         128,
		StreamBW:       76,
		PeakDPGFLOPs:   346,
		PeakSPGFLOPs:   691,
	}
	c := &m.Cost
	// Out-of-order, dual-issue FP: one multiply port and one add port per
	// cycle, so in a balanced mix each costs half a cycle of issue.
	c[perf.OpVecMul] = 0.5
	c[perf.OpVecAdd] = 0.5
	// No FMA: a fused op decomposes into one multiply plus one add, which
	// dual-issue in one cycle.
	c[perf.OpVecFMA] = 1.0
	c[perf.OpVecDiv] = 10 // 4-wide DP divide (SVML reciprocal+Newton)
	c[perf.OpVecMax] = 0.5
	c[perf.OpVecMisc] = 0.2 // moves/shuffles largely hidden by OOO rename
	c[perf.OpVecLoad] = 0.5
	c[perf.OpVecLoadU] = 0.75 // split-line penalty mostly absorbed
	c[perf.OpVecStore] = 1.0
	// AVX has no gather: emulated with scalar loads + inserts. For regular
	// strided streams the hardware prefetcher hides the misses and the
	// out-of-order window absorbs the extra instructions (Sec. IV-A3:
	// "with only a vector length of 4 and superscalar execution, the
	// overhead of AOS format is less pronounced").
	c[perf.OpGather] = 3.5
	c[perf.OpScatter] = 4.5
	c[perf.OpGatherNear] = 2.5
	c[perf.OpScatterNear] = 3.0
	c[perf.OpScalar] = 0.4 // ~2.5 scalar ops/cycle sustained
	c[perf.OpScalarLoad] = 0.5
	c[perf.OpScalarLoadDep] = 1.2 // chase latency partially exposed even OOO
	// Serial FP chains: ~4-cycle FP latency per op, two SMT threads to
	// overlap independent chains.
	c[perf.OpScalarChain] = 1.0
	c[perf.OpScalarStore] = 0.5
	// Transcendentals: cycles per element (SVML-class polynomial kernels).
	c[perf.OpExp] = 4.5
	c[perf.OpLog] = 5.5
	c[perf.OpSqrt] = 3.5
	c[perf.OpErf] = 5.0
	c[perf.OpCND] = 11.0
	c[perf.OpInvCND] = 20.7
	// Uniform doubles per cycle per core, from Table II: 13.31e9/s over 16
	// cores at 2.7 GHz = 3.25 cycles/number.
	c[perf.OpRNG] = 3.25
	return m
}

// KNC returns the model of the Intel Xeon Phi (Knights Corner) coprocessor
// (Table I, right column).
func KNC() *Machine {
	m := &Machine{
		Name:           "KNC",
		FullName:       "Intel Xeon Phi coprocessor (Knights Corner)",
		Sockets:        1,
		CoresPerSocket: 60,
		SMT:            4,
		ClockGHz:       1.09,
		SIMDWidthDP:    8,
		HasFMA:         true,
		OutOfOrder:     false,
		L1KB:           32,
		L2KB:           512,
		L3KB:           0,
		DRAMGB:         4,
		StreamBW:       150,
		PCIeBW:         6,
		PeakDPGFLOPs:   1063,
		PeakSPGFLOPs:   2127,
	}
	c := &m.Cost
	// In-order core with a single vector pipe: every vector instruction
	// occupies one issue slot. 4-way SMT hides latency, so reciprocal
	// throughput is 1 cycle for simple ops.
	c[perf.OpVecMul] = 1.0
	c[perf.OpVecAdd] = 1.0
	c[perf.OpVecFMA] = 1.0 // native FMA: 16 DP flops/cycle
	c[perf.OpVecDiv] = 20  // 8-wide DP divide via Newton iterations
	c[perf.OpVecMax] = 1.0
	c[perf.OpVecMisc] = 1.0 // in-order: register moves cost a full slot
	c[perf.OpVecLoad] = 1.0
	c[perf.OpVecLoadU] = 2.0 // unaligned = two loads + align on KNC
	c[perf.OpVecStore] = 1.0
	// Streaming gathers are KNC's catastrophe case: vgatherdpd loops one
	// cache line per iteration, each line an exposed L2/GDDR miss the
	// in-order core cannot hide behind (no prefetch for irregular lanes),
	// so an 8-line AOS access costs hundreds of cycles even with 4-way SMT
	// (Sec. IV-A3: ">10x increase in the number of instructions" and the
	// 3x reference-Black-Scholes deficit vs. SNB-EP both stem from this).
	// Cache-resident near gathers (<= 2 lines) cost only the loop trips.
	c[perf.OpGather] = 350
	c[perf.OpScatter] = 380
	c[perf.OpGatherNear] = 4.0
	c[perf.OpScatterNear] = 5.0
	// The scalar pipe pairs with the vector pipe and 4-way SMT keeps both
	// fed, so per-cycle scalar throughput is close to SNB-EP's; the
	// paper's scalar-dominated kernels (reference Crank-Nicolson, basic
	// Brownian bridge) show chip-level ratios implying ~1.13x more cycles
	// per scalar op than SNB-EP.
	c[perf.OpScalar] = 0.45
	c[perf.OpScalarLoad] = 0.55
	// Dependent loads expose L1 latency on the in-order pipeline; 4-way
	// SMT only partially covers it.
	c[perf.OpScalarLoadDep] = 3.4
	c[perf.OpScalarChain] = 1.2
	c[perf.OpScalarStore] = 0.55
	// Transcendentals per element: wider vectors amortize setup, but each
	// element still flows through the single vector pipe.
	c[perf.OpExp] = 1.9
	c[perf.OpLog] = 3.0
	c[perf.OpSqrt] = 1.8
	c[perf.OpErf] = 5.5
	c[perf.OpCND] = 6.0
	c[perf.OpInvCND] = 9.95
	// From Table II: 25.134e9 uniforms/s over 60 cores at 1.09 GHz = 2.6
	// cycles/number.
	c[perf.OpRNG] = 2.6
	return m
}

// Machines returns the two modelled architectures in paper order.
func Machines() []*Machine { return []*Machine{SNBEP(), KNC()} }

// ByName returns the machine with the given short name, or nil.
func ByName(name string) *Machine {
	for _, m := range Machines() {
		if strings.EqualFold(m.Name, name) {
			return m
		}
	}
	return nil
}

// Bound classifies what limits a predicted execution.
type Bound int

const (
	// ComputeBound means issue-rate limited.
	ComputeBound Bound = iota
	// BandwidthBound means DRAM-bandwidth limited.
	BandwidthBound
)

// String returns "compute" or "bandwidth".
func (b Bound) String() string {
	if b == BandwidthBound {
		return "bandwidth"
	}
	return "compute"
}

// Prediction is the modelled execution of one workload on one machine.
type Prediction struct {
	Machine *Machine
	// ComputeSec is the issue-rate-limited time.
	ComputeSec float64
	// MemSec is the bandwidth-limited time.
	MemSec float64
	// Sec is the predicted wall time: max(ComputeSec, MemSec).
	Sec float64
	// Bound reports which side of the roofline the workload sits on.
	Bound Bound
	// Cycles is the total dynamic issue-slot cost across all cores.
	Cycles float64
	// GFLOPs is the achieved flop rate implied by Sec.
	GFLOPs float64
}

// Predict models the execution of the given operation mix on m, assuming the
// workload is parallelized across all cores with negligible imbalance (all
// paper kernels are embarrassingly parallel across options/paths).
func (m *Machine) Predict(c perf.Counts) Prediction {
	var cycles float64
	for op := 0; op < perf.NumOps; op++ {
		cycles += m.Cost[op] * float64(c.N[op])
	}
	computeSec := cycles / (float64(m.Cores()) * m.ClockGHz * 1e9)
	memSec := float64(c.BytesRead+c.BytesWritten) / (m.StreamBW * 1e9)
	p := Prediction{
		Machine:    m,
		ComputeSec: computeSec,
		MemSec:     memSec,
		Cycles:     cycles,
	}
	if memSec > computeSec {
		p.Sec, p.Bound = memSec, BandwidthBound
	} else {
		p.Sec, p.Bound = computeSec, ComputeBound
	}
	if p.Sec > 0 {
		p.GFLOPs = float64(c.FLOPs()) / p.Sec / 1e9
	}
	return p
}

// Throughput returns modelled work items per second for the mix, using
// Counts.Items as the item count.
func (m *Machine) Throughput(c perf.Counts) float64 {
	p := m.Predict(c)
	if p.Sec == 0 { // finlint:ignore floateq exact-zero guard before dividing
		return 0
	}
	return float64(c.Items) / p.Sec
}

// TableI renders the Table I system-configuration comparison.
func TableI() string {
	s, k := SNBEP(), KNC()
	var b strings.Builder
	row := func(name, sv, kv string) { fmt.Fprintf(&b, "%-34s %14s %14s\n", name, sv, kv) }
	row("", s.Name, k.Name)
	row("Sockets x Cores x SMT",
		fmt.Sprintf("%d x %d x %d", s.Sockets, s.CoresPerSocket, s.SMT),
		fmt.Sprintf("%d x %d x %d", k.Sockets, k.CoresPerSocket, k.SMT))
	row("Clock (GHz)", fmt.Sprintf("%.2f", s.ClockGHz), fmt.Sprintf("%.2f", k.ClockGHz))
	row("Single Precision GFLOP/s", fmt.Sprintf("%.0f", s.PeakSPGFLOPs), fmt.Sprintf("%.0f", k.PeakSPGFLOPs))
	row("Double Precision GFLOP/s", fmt.Sprintf("%.0f", s.PeakDPGFLOPs), fmt.Sprintf("%.0f", k.PeakDPGFLOPs))
	l3 := func(m *Machine) string {
		if m.L3KB == 0 {
			return "-"
		}
		return fmt.Sprintf("%d", m.L3KB)
	}
	row("L1 / L2 / L3 Cache (KB)",
		fmt.Sprintf("%d / %d / %s", s.L1KB, s.L2KB, l3(s)),
		fmt.Sprintf("%d / %d / %s", k.L1KB, k.L2KB, l3(k)))
	row("DRAM (GB)", fmt.Sprintf("%.0f", s.DRAMGB), fmt.Sprintf("%.0f GDDR", k.DRAMGB))
	row("STREAM Bandwidth (GB/s)", fmt.Sprintf("%.0f", s.StreamBW), fmt.Sprintf("%.0f", k.StreamBW))
	row("PCIe Bandwidth (GB/s)", "-", fmt.Sprintf("%.0f", k.PCIeBW))
	return b.String()
}
