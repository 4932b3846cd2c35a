// Package perf provides operation-mix accounting for the finbench kernels.
//
// The paper (Sec. III-B) justifies each optimization level with measured
// instruction mixes from VTune and with analytical performance models
// ("the total computation performed is about 200 ops, while streaming in 24
// bytes writing out 16 bytes for each option").  We reproduce that
// methodology in software: every kernel variant is written against the
// software vector ISA in internal/vec, which reports its dynamic operation
// mix into a Counts.  internal/machine then converts a Counts into a
// predicted execution time for each modelled architecture.
//
// Counts is deliberately a plain value type: kernels accumulate into a local
// Counts (no locks on hot paths) and merge per-goroutine results at the end.
package perf

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Op identifies a class of dynamic operation with a distinct cost on the
// modelled architectures.
type Op int

const (
	// OpVecMul counts vector multiplies (one per SIMD instruction, not per
	// lane).
	OpVecMul Op = iota
	// OpVecAdd counts vector adds/subtracts.
	OpVecAdd
	// OpVecFMA counts fused multiply-adds. On machines without FMA the cost
	// model expands these into a multiply plus an add.
	OpVecFMA
	// OpVecDiv counts vector divides (long-latency, unpipelined on KNC).
	OpVecDiv
	// OpVecMax counts vector max/min/compare/blend operations.
	OpVecMax
	// OpVecMisc counts cheap vector ops: moves, broadcasts, shuffles,
	// swizzles, logical operations.
	OpVecMisc
	// OpVecLoad counts aligned vector loads from the cache hierarchy.
	OpVecLoad
	// OpVecLoadU counts unaligned vector loads (split-line penalty; the
	// paper calls these out for the binomial reference code's Call[j+1]).
	OpVecLoadU
	// OpVecStore counts vector stores.
	OpVecStore
	// OpGather counts vector gathers: element count is width, and the cost
	// model charges per touched cache line (Sec. IV-A3: gathering across 8
	// cache lines leads to a >10x instruction-count increase on KNC).
	OpGather
	// OpScatter counts vector scatters, charged like gathers.
	OpScatter
	// OpGatherNear counts gathers whose lanes span at most two cache lines
	// (e.g. the stride -2 wavefront accesses of GSOR): cheap even on KNC
	// because the lines are L1-resident.
	OpGatherNear
	// OpScatterNear counts near scatters.
	OpScatterNear
	// OpScalar counts scalar ALU/FP operations (loop control is excluded;
	// only real work is counted, as in the paper's flop accounting).
	OpScalar
	// OpScalarLoad counts independent scalar loads (streaming/prefetchable).
	OpScalarLoad
	// OpScalarLoadDep counts dependent or indirect scalar loads (pointer
	// chasing, table lookups feeding the next address or a serial chain).
	// Out-of-order cores hide most of their latency; in-order KNC cannot
	// (the Brownian bridge "stresses the ability of a computing
	// environment to deal with indirection", Sec. II-E).
	OpScalarLoadDep
	// OpScalarChain counts scalar FP operations on a loop-carried serial
	// dependence chain (e.g. the Gauss-Seidel recurrence through u[j-1]):
	// their latency cannot be hidden by issue width, only by SMT, so they
	// cost several cycles each on both architectures. Breaking such chains
	// is precisely what the wavefront vectorization of Fig. 7 buys.
	OpScalarChain
	// OpScalarStore counts scalar stores.
	OpScalarStore
	// OpExp counts exp evaluations (per SIMD call for vector code, per call
	// for scalar code; lane count is folded into the per-op cost).
	OpExp
	// OpLog counts log evaluations.
	OpLog
	// OpSqrt counts square roots.
	OpSqrt
	// OpErf counts error-function evaluations (the SVML-style erf that the
	// optimized Black-Scholes substitutes for cnd).
	OpErf
	// OpCND counts full cumulative-normal-distribution evaluations (the
	// reference Black-Scholes path; costlier than erf).
	OpCND
	// OpInvCND counts inverse-CND evaluations (normal RNG transform).
	OpInvCND
	// OpRNG counts raw uniform random-number generations (one twist+temper
	// per number).
	OpRNG
	numOps
)

var opNames = [numOps]string{
	"vec.mul", "vec.add", "vec.fma", "vec.div", "vec.max", "vec.misc",
	"vec.load", "vec.loadu", "vec.store", "vec.gather", "vec.scatter",
	"vec.gather2", "vec.scatter2",
	"scalar.op", "scalar.load", "scalar.loaddep", "scalar.chain", "scalar.store",
	"math.exp", "math.log", "math.sqrt", "math.erf", "math.cnd",
	"math.invcnd", "rng.uniform",
}

// String returns the short mnemonic for the op class.
func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("perf.Op(%d)", int(o))
	}
	return opNames[o]
}

// NumOps is the number of distinct operation classes.
const NumOps = int(numOps)

// Counts is a dynamic operation mix: how many operations of each class a
// kernel executed, plus the memory traffic it generated beyond the cache
// hierarchy.
type Counts struct {
	N [NumOps]uint64

	// BytesRead is traffic streamed in from DRAM (after the modelled cache;
	// kernels report compulsory traffic, i.e. working set actually read).
	BytesRead uint64
	// BytesWritten is traffic streamed out to DRAM. Streaming stores are
	// assumed (Sec. IV-A3), so written lines are not also read.
	BytesWritten uint64

	// Width is the SIMD width the kernel was compiled for (4 on SNB-EP,
	// 8 on KNC). Zero means scalar-only code.
	Width int

	// Items is the number of work items (options, paths, ...) the counts
	// cover; used to scale a profiled sample up to a full workload.
	Items uint64
}

// Add accumulates n occurrences of op.
func (c *Counts) Add(op Op, n uint64) { c.N[op] += n }

// AddBytes accumulates DRAM traffic.
func (c *Counts) AddBytes(read, written uint64) {
	c.BytesRead += read
	c.BytesWritten += written
}

// Merge adds other into c (for combining per-goroutine counters).
func (c *Counts) Merge(other Counts) {
	for i := range c.N {
		c.N[i] += other.N[i]
	}
	c.BytesRead += other.BytesRead
	c.BytesWritten += other.BytesWritten
	c.Items += other.Items
	if c.Width == 0 {
		c.Width = other.Width
	}
}

// Total returns the total dynamic operation count across all classes.
func (c Counts) Total() uint64 {
	var t uint64
	for _, n := range c.N {
		t += n
	}
	return t
}

// FLOPs estimates the floating-point operation count represented by the mix,
// counting each vector op as Width lane-operations and an FMA as two flops.
// Transcendentals are charged at their polynomial flop equivalents, matching
// how the paper counts "ops" for its Black-Scholes bound (~200 ops/option).
func (c Counts) FLOPs() uint64 {
	w := uint64(c.Width)
	if w == 0 {
		w = 1
	}
	var f uint64
	f += (c.N[OpVecMul] + c.N[OpVecAdd] + c.N[OpVecDiv] + c.N[OpVecMax]) * w
	f += c.N[OpVecFMA] * 2 * w
	f += c.N[OpScalar] + c.N[OpScalarChain]
	// Polynomial-equivalent flop weights for transcendentals; these are
	// already counted per element (internal/vec records lane counts), so
	// no width factor applies.
	f += c.N[OpExp] * 15
	f += c.N[OpLog] * 18
	f += c.N[OpSqrt] * 6
	f += c.N[OpErf] * 20
	f += c.N[OpCND] * 30
	f += c.N[OpInvCND] * 30
	return f
}

// ArithmeticIntensity returns flops per DRAM byte, the roofline x-axis.
// It returns +Inf when no DRAM traffic was recorded.
func (c Counts) ArithmeticIntensity() float64 {
	b := c.BytesRead + c.BytesWritten
	if b == 0 {
		return math.Inf(1)
	}
	return float64(c.FLOPs()) / float64(b)
}

// Map renders the mix as a flat name->count map for serialization (the
// benchreg snapshot form). Zero classes are omitted; DRAM traffic, item
// count, and SIMD width ride along under reserved keys that cannot
// collide with op mnemonics (none contain "bytes." or "meta.").
func (c Counts) Map() map[string]uint64 {
	out := make(map[string]uint64)
	for i := 0; i < NumOps; i++ {
		if c.N[i] > 0 {
			out[Op(i).String()] = c.N[i]
		}
	}
	if c.BytesRead > 0 {
		out["bytes.read"] = c.BytesRead
	}
	if c.BytesWritten > 0 {
		out["bytes.written"] = c.BytesWritten
	}
	if c.Items > 0 {
		out["meta.items"] = c.Items
	}
	if c.Width > 0 {
		out["meta.width"] = uint64(c.Width)
	}
	return out
}

// SchedStats describes the parallel substrate's scheduling behavior: how
// the persistent fork-join pool in internal/parallel dispatched work. It
// lives here (rather than in internal/parallel) for the same reason Counts
// does — it is a plain accounting value that rides along in benchreg
// snapshots, recording *how* a throughput number was scheduled alongside
// the number itself.
type SchedStats struct {
	// Jobs counts parallel regions that actually forked onto the pool.
	Jobs uint64
	// Serial counts regions that collapsed to one worker and ran inline
	// on the calling goroutine (no queue traffic at all).
	Serial uint64
	// Dispatched counts chunk tasks enqueued for other goroutines
	// (slots beyond the submitter's own slot 0).
	Dispatched uint64
	// Handoffs counts dispatched tasks executed by parked pool workers.
	Handoffs uint64
	// Steals counts dispatched tasks reclaimed and executed by a
	// submitting goroutine while it joined its own region. After all
	// regions complete, Handoffs + Steals == Dispatched.
	Steals uint64
	// Workers is the pool's current helper-worker count (a level, not a
	// counter; Delta keeps the newer value).
	Workers uint64
}

// Delta returns the counter increments from prev to s (Workers is carried
// from s). Use it to attribute scheduling activity to a code region by
// snapshotting before and after.
func (s SchedStats) Delta(prev SchedStats) SchedStats {
	return SchedStats{
		Jobs:       s.Jobs - prev.Jobs,
		Serial:     s.Serial - prev.Serial,
		Dispatched: s.Dispatched - prev.Dispatched,
		Handoffs:   s.Handoffs - prev.Handoffs,
		Steals:     s.Steals - prev.Steals,
		Workers:    s.Workers,
	}
}

// Map renders the stats as a flat name->count map for serialization (the
// benchreg snapshot form). Zero fields are kept: a zero Handoffs next to a
// nonzero Dispatched is itself informative.
func (s SchedStats) Map() map[string]uint64 {
	return map[string]uint64{
		"pool.jobs":       s.Jobs,
		"pool.serial":     s.Serial,
		"pool.dispatched": s.Dispatched,
		"pool.handoffs":   s.Handoffs,
		"pool.steals":     s.Steals,
		"pool.workers":    s.Workers,
	}
}

// String renders the stats compactly for logs and tables.
func (s SchedStats) String() string {
	return fmt.Sprintf("jobs=%d serial=%d dispatched=%d handoffs=%d steals=%d workers=%d",
		s.Jobs, s.Serial, s.Dispatched, s.Handoffs, s.Steals, s.Workers)
}

// String renders a compact human-readable mix, omitting zero classes and
// sorting by count (largest first) so profiles read like a VTune hot list.
func (c Counts) String() string {
	type kv struct {
		op Op
		n  uint64
	}
	var list []kv
	for i := 0; i < NumOps; i++ {
		if c.N[i] > 0 {
			list = append(list, kv{Op(i), c.N[i]})
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].n > list[j].n })
	var b strings.Builder
	fmt.Fprintf(&b, "items=%d width=%d", c.Items, c.Width)
	for _, e := range list {
		fmt.Fprintf(&b, " %s=%d", e.op, e.n)
	}
	if c.BytesRead+c.BytesWritten > 0 {
		fmt.Fprintf(&b, " rd=%dB wr=%dB", c.BytesRead, c.BytesWritten)
	}
	return b.String()
}
