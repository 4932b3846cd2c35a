package benchreg

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Gate is the noise-aware regression rule. A kernel regresses only when
// both conditions hold:
//
//  1. its median throughput dropped by more than MaxSlowdown, and
//  2. the absolute drop exceeds MADFactor x the larger of the two runs'
//     throughput MADs (the drop is outside either run's own noise band).
//
// Condition 2 alone would flag microscopically-jittery kernels whose MAD
// rounds to ~0; condition 1 alone would flag any noisy kernel on a loaded
// machine. Together they encode "meaningfully and credibly slower".
type Gate struct {
	// MaxSlowdown is the tolerated fractional throughput drop (0.10 =
	// new median may be up to 10% below old before condition 1 trips).
	MaxSlowdown float64
	// MADFactor scales the noise band (3 ≈ a z-score of ~4.5 for normal
	// noise, since MAD ≈ 0.6745 sigma).
	MADFactor float64
	// MaxAllocIncrease is the tolerated fractional allocs/op growth on
	// records with GateAllocs set, and AllocSlack is an absolute
	// allowance on top of it (sub-allocation jitter from the runtime —
	// timer churn, map growth on a boundary — without forgiving a real
	// new per-request allocation). Allocation counts are deterministic
	// per binary, so there is no MAD band and no calibration scaling:
	// new > old*(1+MaxAllocIncrease) + AllocSlack is a regression.
	MaxAllocIncrease float64
	AllocSlack       float64
}

// DefaultGate is the documented default: >10% slower and beyond 3xMAD;
// allocs/op on gated records may grow 10% plus half an allocation.
func DefaultGate() Gate {
	return Gate{MaxSlowdown: 0.10, MADFactor: 3, MaxAllocIncrease: 0.10, AllocSlack: 0.5}
}

// Regression reports whether new is a regression of old under the gate.
func (g Gate) Regression(old, new Record) bool {
	drop := old.OpsPerSec - new.OpsPerSec
	if drop <= old.OpsPerSec*g.MaxSlowdown {
		return false
	}
	noise := g.MADFactor * math.Max(old.OpsMAD, new.OpsMAD)
	return drop > noise
}

// AllocRegression reports whether new allocates meaningfully more per
// op than old. Only records that opted in (GateAllocs on the candidate
// side) are gated; an old record without the field (schema upgrades set
// AllocsPerOp only going forward) still compares, since its zero can
// only make the rule stricter, never hide growth.
func (g Gate) AllocRegression(old, new Record) bool {
	if !new.GateAllocs {
		return false
	}
	return new.AllocsPerOp > old.AllocsPerOp*(1+g.MaxAllocIncrease)+g.AllocSlack
}

// Delta is one kernel's comparison between two snapshots.
type Delta struct {
	Key   string
	Units string
	// Old and New are nil when the kernel exists on only one side: an
	// added kernel is reported, a baseline kernel missing from the
	// candidate fails the check (a refactor must not drop a row out of
	// the gate).
	Old *Record
	New *Record
	// Ratio is new/old median throughput (>1 is faster); 0 when either
	// side is missing.
	Ratio float64
	// Regression is set by the gate that produced the delta.
	Regression bool
	// AllocRegression reports allocs/op growth beyond the gate on a
	// GateAllocs record (never calibration-scaled).
	AllocRegression bool
}

// diffScaled compares two snapshots kernel-by-kernel under the gate, with
// the baseline side rescaled by factor (the calibration speed ratio)
// before ratios and the gate are evaluated; the displayed Old record keeps
// its raw values. Deltas sort worst-ratio-first (missing-side deltas
// last).
func diffScaled(old, new *Snapshot, g Gate, factor float64) []Delta {
	if factor <= 0 {
		factor = 1
	}
	oldIdx, newIdx := old.index(), new.index()
	keys := make([]string, 0, len(oldIdx)+len(newIdx))
	for k := range oldIdx {
		keys = append(keys, k)
	}
	for k := range newIdx {
		if _, ok := oldIdx[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	deltas := make([]Delta, 0, len(keys))
	for _, key := range keys {
		o, hasOld := oldIdx[key]
		n, hasNew := newIdx[key]
		d := Delta{Key: key}
		switch {
		case hasOld && hasNew:
			d.Units = n.Units
			d.Old, d.New = &o, &n
			scaled := o
			scaled.OpsPerSec *= factor
			scaled.OpsMAD *= factor
			if scaled.OpsPerSec > 0 {
				d.Ratio = n.OpsPerSec / scaled.OpsPerSec
			}
			d.Regression = g.Regression(scaled, n)
			// Allocation counts do not drift with machine speed, so the
			// alloc rule sees the raw baseline, not the rescaled one.
			d.AllocRegression = g.AllocRegression(o, n)
		case hasOld:
			d.Units = o.Units
			d.Old = &o
		default:
			d.Units = n.Units
			d.New = &n
		}
		deltas = append(deltas, d)
	}
	sort.SliceStable(deltas, func(i, j int) bool {
		ri, rj := deltas[i].Ratio, deltas[j].Ratio
		if ri <= 0 {
			ri = math.Inf(1)
		}
		if rj <= 0 {
			rj = math.Inf(1)
		}
		if ri < rj {
			return true
		}
		if ri > rj {
			return false
		}
		return deltas[i].Key < deltas[j].Key
	})
	return deltas
}

// Report is the outcome of checking a candidate snapshot against a
// baseline.
type Report struct {
	Deltas      []Delta
	Regressions []Delta
	// Missing lists the keys of baseline kernels the candidate lacks.
	Missing []string
	// EnvMatch reports whether the two snapshots' environment
	// fingerprints are comparable; when false, throughput regressions
	// are advisory (Failed returns false unless strict).
	EnvMatch bool
	// TargetMatch reports whether both ran the same GOOS, GOARCH and
	// GOMAXPROCS, under which allocation counts compare whatever the
	// CPU model: allocs/op regressions gate then.
	TargetMatch bool
	// SpeedFactor is the candidate/baseline calibration-throughput ratio
	// applied to the baseline before gating (1 when either snapshot
	// lacks calibration). A factor of 0.7 means the candidate machine
	// ran the memory-free calibration kernel 30% slower — uniform drift
	// the per-kernel ratios are corrected for.
	SpeedFactor      float64
	BaselineEnv      Env
	CandidateEnv     Env
	Gate             Gate
	BaselineCreated  string
	CandidateCreated string
}

// Check diffs candidate against baseline under the gate — with the
// baseline rescaled by the calibration speed ratio when both snapshots
// carry one — and bundles the result with the environment comparability
// verdict.
func Check(baseline, candidate *Snapshot, g Gate) *Report {
	factor := 1.0
	if baseline.CalibOpsPerSec > 0 && candidate.CalibOpsPerSec > 0 {
		factor = candidate.CalibOpsPerSec / baseline.CalibOpsPerSec
	}
	r := &Report{
		Deltas:           diffScaled(baseline, candidate, g, factor),
		EnvMatch:         baseline.Env.Comparable(candidate.Env),
		TargetMatch:      baseline.Env.sameTarget(candidate.Env),
		SpeedFactor:      factor,
		BaselineEnv:      baseline.Env,
		CandidateEnv:     candidate.Env,
		Gate:             g,
		BaselineCreated:  baseline.CreatedAt,
		CandidateCreated: candidate.CreatedAt,
	}
	for _, d := range r.Deltas {
		if d.Regression || d.AllocRegression {
			r.Regressions = append(r.Regressions, d)
		}
		if d.New == nil {
			r.Missing = append(r.Missing, d.Key)
		}
	}
	return r
}

// Failed reports whether the check should gate (exit nonzero). A
// baseline kernel missing from the candidate always fails. An allocs/op
// regression fails whenever the targets match: allocation counts do not
// depend on the CPU model. With strictEnv false — the default — a
// throughput regression on a mismatched environment is a warning: a
// different CPU model or GOMAXPROCS shifts every kernel at once, and
// failing on that punishes the runner, not the code.
func (r *Report) Failed(strictEnv bool) bool {
	if len(r.Missing) > 0 {
		return true
	}
	for _, d := range r.Regressions {
		if (d.AllocRegression && (r.TargetMatch || strictEnv)) || (d.Regression && (r.EnvMatch || strictEnv)) {
			return true
		}
	}
	return false
}

// deltaCells renders the shared row fields of a delta.
func deltaCells(d Delta) (oldS, newS, ratioS, allocS, verdict string) {
	switch {
	case d.Old == nil:
		return "-", fmtOps(d.New.OpsPerSec), "-", fmtAllocs(d.New), "added"
	case d.New == nil:
		return fmtOps(d.Old.OpsPerSec), "-", "-", "-", "MISSING"
	}
	oldS = fmtOps(d.Old.OpsPerSec) + "±" + fmtOps(d.Old.OpsMAD)
	newS = fmtOps(d.New.OpsPerSec) + "±" + fmtOps(d.New.OpsMAD)
	ratioS = fmt.Sprintf("%.3f", d.Ratio)
	allocS = fmt.Sprintf("%s→%s", fmtAllocs(d.Old), fmtAllocs(d.New))
	verdict = "ok"
	switch {
	case d.Regression && d.AllocRegression:
		verdict = "REGRESSION+ALLOC"
	case d.Regression:
		verdict = "REGRESSION"
	case d.AllocRegression:
		verdict = "ALLOC-REGRESSION"
	case d.Ratio > 1.10:
		verdict = "improved"
	}
	return oldS, newS, ratioS, allocS, verdict
}

// fmtAllocs renders a record's allocs/op; gated records are starred so
// the table shows which rows the alloc rule applies to.
func fmtAllocs(r *Record) string {
	s := fmt.Sprintf("%.3g", r.AllocsPerOp)
	if r.GateAllocs {
		s += "*"
	}
	return s
}

// fmtOps renders a throughput in engineering units.
func fmtOps(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gK", v/1e3)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Table renders the per-kernel delta table as aligned text.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "baseline:  %s\ncandidate: %s\n", r.BaselineEnv, r.CandidateEnv)
	if r.SpeedFactor < 0.999 || r.SpeedFactor > 1.001 {
		fmt.Fprintf(&b, "calibration speed factor %.3f applied to baseline (ratios are drift-corrected)\n", r.SpeedFactor)
	}
	if !r.EnvMatch {
		fmt.Fprintf(&b, "note: environment fingerprints differ; throughput regressions below are advisory\n")
	}
	fmt.Fprintf(&b, "%-52s %-10s %18s %18s %8s %14s %s\n", "kernel", "units", "old", "new", "ratio", "allocs/op", "verdict")
	for _, d := range r.Deltas {
		oldS, newS, ratioS, allocS, verdict := deltaCells(d)
		fmt.Fprintf(&b, "%-52s %-10s %18s %18s %8s %14s %s\n", d.Key, d.Units, oldS, newS, ratioS, allocS, verdict)
	}
	fmt.Fprintf(&b, "%d kernels compared, %d missing, %d regression(s) beyond %.0f%%+%gxMAD or allocs/op +%.0f%%+%g on gated (*) rows\n",
		len(r.Deltas), len(r.Missing), len(r.Regressions), r.Gate.MaxSlowdown*100, r.Gate.MADFactor,
		r.Gate.MaxAllocIncrease*100, r.Gate.AllocSlack)
	return b.String()
}

// Markdown renders the delta table as GitHub-flavored markdown for CI job
// summaries.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Benchmark delta\n\n")
	fmt.Fprintf(&b, "- baseline env: `%s`\n- candidate env: `%s`\n", r.BaselineEnv, r.CandidateEnv)
	if r.SpeedFactor < 0.999 || r.SpeedFactor > 1.001 {
		fmt.Fprintf(&b, "- calibration speed factor `%.3f` applied to baseline (ratios are drift-corrected)\n", r.SpeedFactor)
	}
	if !r.EnvMatch {
		fmt.Fprintf(&b, "- **environment fingerprints differ** — throughput deltas are advisory, not gated\n")
	}
	fmt.Fprintf(&b, "\n| kernel | units | old (median±MAD) | new (median±MAD) | ratio | allocs/op | verdict |\n")
	fmt.Fprintf(&b, "|---|---|---:|---:|---:|---:|---|\n")
	for _, d := range r.Deltas {
		oldS, newS, ratioS, allocS, verdict := deltaCells(d)
		if strings.Contains(verdict, "REGRESSION") || verdict == "MISSING" {
			verdict = "**" + verdict + "**"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s |\n", d.Key, d.Units, oldS, newS, ratioS, allocS, verdict)
	}
	fmt.Fprintf(&b, "\n%d kernels compared, %d missing, %d regression(s) beyond %.0f%% + %gxMAD (throughput) or +%.0f%% + %g (allocs/op on gated `*` rows).\n",
		len(r.Deltas), len(r.Missing), len(r.Regressions), r.Gate.MaxSlowdown*100, r.Gate.MADFactor,
		r.Gate.MaxAllocIncrease*100, r.Gate.AllocSlack)
	return b.String()
}
