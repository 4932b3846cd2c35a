// Package benchreg is the continuous-benchmarking layer: it turns the
// one-shot wall-clock timings of internal/bench into a durable, diffable
// performance record.
//
// The paper's contribution is a set of measured per-kernel throughput
// numbers (Figs. 4-6, Table II) and the "Ninja gap" they imply; keeping a
// reproduction honest therefore means keeping a trajectory of the same
// measurements over the life of the repo. benchreg provides the three
// pieces that makes that possible:
//
//   - Measure: a warmup-plus-k-repetitions timing harness that reports the
//     median and MAD (median absolute deviation) of each kernel's wall
//     time and throughput, instead of a single noisy sample. The median is
//     robust to scheduler hiccups; the MAD bounds the run's own noise so a
//     later comparison can tell drift from jitter.
//   - Snapshot: a schema-versioned JSON record (BENCH_<n>.json) holding
//     every registered experiment's per-kernel Sample, the perf.Counts op
//     mix of its best-optimized kernel, and an environment fingerprint
//     (Go version, GOMAXPROCS, CPU model) so snapshots from different
//     hosts are never silently compared as equals.
//   - Diff/Gate: kernel-by-kernel comparison of two snapshots with a
//     noise-aware regression rule — a kernel regresses only when its
//     median throughput drops by more than MaxSlowdown AND the drop
//     exceeds MADFactor x the larger MAD of the two runs. A baseline
//     kernel missing from the candidate fails outright, and a gated
//     kernel's allocs/op may not grow beyond a small allowance.
//
// The package deliberately does not import internal/bench: it is a generic
// harness over (items, func()) kernels plus plain records, and
// internal/bench adapts its experiment registry onto it (bench.Collect).
// That keeps the import direction acyclic while bench's Result.Time
// routes every row through the same repetition logic, so interactive
// `finbench run -mode measure` tables and committed snapshots share one
// methodology.
package benchreg

// SchemaVersion is bumped whenever the snapshot JSON layout changes
// incompatibly; readers refuse snapshots from a different schema rather
// than diffing fields that silently changed meaning. Schema 2 added
// allocs_per_op/gate_allocs to kernel records; a schema-1 snapshot
// would diff as "allocations unknown", which the gate must not treat as
// zero.
const SchemaVersion = 2

// Snapshot is one complete benchmark run: every measured kernel's timing
// record plus the environment it ran in.
type Snapshot struct {
	// Schema is the snapshot layout version (SchemaVersion at write time).
	Schema int `json:"schema"`
	// CreatedAt is an RFC 3339 wall-clock stamp. It is set by cmd/benchreg
	// (never by library code, keeping the library deterministic) and is
	// informational only: diffs ignore it.
	CreatedAt string `json:"created_at,omitempty"`
	// Mode names the sampling preset ("short" or "full").
	Mode string `json:"mode,omitempty"`
	// Scale is the workload scale the experiments ran at.
	Scale float64 `json:"scale"`
	// Opts is the sampling configuration used for every kernel.
	Opts Opts `json:"opts"`
	// Env fingerprints the host; Check downgrades throughput regressions
	// to warnings when two snapshots' fingerprints differ.
	Env Env `json:"env"`
	// CalibOpsPerSec is the throughput of the fixed pure-ALU calibration
	// kernel (Calibrate) on this run. Because the kernel touches no
	// memory, its speed tracks only the machine's effective CPU speed
	// (frequency scaling, cgroup throttling, noisy neighbors); check
	// divides it out so a uniformly slower run does not read as a
	// uniform regression.
	CalibOpsPerSec float64 `json:"calib_ops_per_sec,omitempty"`
	// Kernels holds one record per measured (experiment, label) pair.
	Kernels []Record `json:"kernels"`
	// Mixes maps experiment ID to the perf.Counts op mix of its
	// best-optimized kernel (perf.Counts.Map form), recording *why* the
	// throughput is what it is alongside the number itself.
	Mixes map[string]map[string]uint64 `json:"mixes,omitempty"`
	// Sched is the parallel pool's scheduling-counter delta across the
	// whole collection run (perf.SchedStats.Map form): fork-join jobs,
	// serial fast-path regions, and how dispatched tasks split between
	// worker handoffs and helping-join steals. Informational only — diffs
	// never gate on it.
	Sched map[string]uint64 `json:"sched,omitempty"`
}

// Record is the durable form of one kernel's Sample.
type Record struct {
	// Experiment is the bench registry ID (fig4, tab2, ...).
	Experiment string `json:"experiment"`
	// Label is the row label within the experiment ("Advanced (VML batch)").
	Label string `json:"label"`
	// Units names the throughput unit (options/s, paths/s, ...).
	Units string `json:"units"`
	// Items is the number of work items one kernel invocation processes.
	Items int `json:"items"`
	// Reps is the number of timed repetitions behind the medians.
	Reps int `json:"reps"`
	// MedianSec and MADSec summarize wall time per kernel invocation.
	MedianSec float64 `json:"median_sec"`
	MADSec    float64 `json:"mad_sec"`
	// OpsPerSec and OpsMAD summarize throughput (Items per second) across
	// the repetitions.
	OpsPerSec float64 `json:"ops_per_sec"`
	OpsMAD    float64 `json:"ops_mad"`
	// AllocsPerOp is the median heap allocations per kernel invocation.
	// It is machine-independent (same binary, same count), so the diff
	// gate compares it without calibration scaling or a MAD noise band.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// GateAllocs marks records whose allocation count is a serving-tier
	// contract (one invocation = one request): the gate fails the check
	// when it grows. Kernel-throughput records leave it false — their
	// invocations allocate working sets proportional to Items, which is
	// a property of the workload, not a per-request budget.
	GateAllocs bool `json:"gate_allocs,omitempty"`
}

// Key identifies a kernel across snapshots: experiment ID plus row label.
func (r Record) Key() string { return r.Experiment + " / " + r.Label }
