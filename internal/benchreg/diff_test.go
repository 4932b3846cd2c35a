package benchreg

import (
	"strings"
	"testing"
	"time"
)

// slow returns a copy of snap with the named kernel's throughput scaled
// by factor (its MAD scaled along with it).
func slow(snap *Snapshot, key string, factor float64) *Snapshot {
	out := *snap
	out.Kernels = make([]Record, len(snap.Kernels))
	copy(out.Kernels, snap.Kernels)
	for i := range out.Kernels {
		if out.Kernels[i].Key() == key {
			out.Kernels[i].OpsPerSec *= factor
			out.Kernels[i].OpsMAD *= factor
			out.Kernels[i].MedianSec /= factor
		}
	}
	return &out
}

func TestGateDetectsSyntheticSlowdown(t *testing.T) {
	base := testSnapshot()
	const key = "fig4 / Advanced (VML batch)"
	report := Check(base, slow(base, key, 0.5), DefaultGate())
	if len(report.Regressions) != 1 {
		t.Fatalf("%d regressions, want exactly 1", len(report.Regressions))
	}
	if report.Regressions[0].Key != key {
		t.Fatalf("regression on %q, want %q", report.Regressions[0].Key, key)
	}
	if !report.Failed(false) {
		t.Fatal("a 2x slowdown on a matching env must fail the check")
	}
	// Worst ratio sorts first in the delta table.
	if report.Deltas[0].Key != key {
		t.Fatalf("worst delta %q not sorted first", report.Deltas[0].Key)
	}
}

func TestGateToleratesSmallAndNoisySlowdowns(t *testing.T) {
	base := testSnapshot()
	const key = "fig5 / Advanced (+unroll)"
	// 5% drop: inside MaxSlowdown, never a regression.
	if r := Check(base, slow(base, key, 0.95), DefaultGate()); len(r.Regressions) != 0 {
		t.Fatalf("5%% drop flagged: %+v", r.Regressions[0])
	}
	// 20% drop but the baseline is extremely noisy: inside 3xMAD.
	noisy := *base
	noisy.Kernels = make([]Record, len(base.Kernels))
	copy(noisy.Kernels, base.Kernels)
	for i := range noisy.Kernels {
		if noisy.Kernels[i].Key() == key {
			noisy.Kernels[i].OpsMAD = noisy.Kernels[i].OpsPerSec * 0.10
		}
	}
	if r := Check(&noisy, slow(&noisy, key, 0.8), DefaultGate()); len(r.Regressions) != 0 {
		t.Fatal("20% drop within a 30% noise band must not gate")
	}
	// The same 20% drop with a tight MAD does gate.
	if r := Check(base, slow(base, key, 0.8), DefaultGate()); len(r.Regressions) != 1 {
		t.Fatal("20% drop beyond the noise band must gate")
	}
	// Speedups never gate.
	if r := Check(base, slow(base, key, 2.0), DefaultGate()); len(r.Regressions) != 0 || r.Failed(true) {
		t.Fatal("a speedup must not gate")
	}
}

func TestDiffReportsAddedAndRemovedKernels(t *testing.T) {
	base := testSnapshot()
	cand := testSnapshot()
	cand.Kernels = cand.Kernels[:len(cand.Kernels)-1] // drop tab2/uniform
	cand.Kernels = append(cand.Kernels, Record{
		Experiment: "fig6", Label: "Cache-to-cache", Units: "paths/s",
		Items: 8192, Reps: 5, OpsPerSec: 1.4e5, OpsMAD: 900,
	})
	report := Check(base, cand, DefaultGate())
	if len(report.Regressions) != 0 || report.Failed(true) {
		t.Fatal("added/removed kernels must not gate")
	}
	var added, removed bool
	for _, d := range report.Deltas {
		switch {
		case d.Old == nil && d.Key == "fig6 / Cache-to-cache":
			added = true
		case d.New == nil && d.Key == "tab2 / uniform DP RNG/sec":
			removed = true
		}
	}
	if !added || !removed {
		t.Fatalf("added=%v removed=%v, want both reported", added, removed)
	}
	table := report.Table()
	if !strings.Contains(table, "added") || !strings.Contains(table, "removed") {
		t.Fatalf("table missing added/removed verdicts:\n%s", table)
	}
}

func TestEnvMismatchDowngradesToAdvisory(t *testing.T) {
	base := testSnapshot()
	cand := slow(base, "fig4 / Advanced (VML batch)", 0.5)
	cand.Env.CPUModel = "Different CPU"
	report := Check(base, cand, DefaultGate())
	if report.EnvMatch {
		t.Fatal("different CPU models must not be comparable")
	}
	if len(report.Regressions) != 1 {
		t.Fatal("the delta itself is still reported")
	}
	if report.Failed(false) {
		t.Fatal("env mismatch must downgrade regressions to advisory by default")
	}
	if !report.Failed(true) {
		t.Fatal("-strict-env must restore gating")
	}
	if !strings.Contains(report.Table(), "advisory") {
		t.Fatal("table must call out the advisory downgrade")
	}
}

func TestEnvComparable(t *testing.T) {
	a := Env{GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 4, CPUModel: "X"}
	cases := []struct {
		mutate func(*Env)
		want   bool
	}{
		{func(e *Env) {}, true},
		{func(e *Env) { e.CPUModel = "" }, true}, // unknown model: compare the rest
		{func(e *Env) { e.CPUModel = "Y" }, false},
		{func(e *Env) { e.GOMAXPROCS = 8 }, false},
		{func(e *Env) { e.GOARCH = "arm64" }, false},
		{func(e *Env) { e.GoVersion = "go1.99" }, true}, // toolchain drift stays gated
	}
	for i, c := range cases {
		b := a
		c.mutate(&b)
		if got := a.Comparable(b); got != c.want {
			t.Errorf("case %d: Comparable = %v, want %v (%+v)", i, got, c.want, b)
		}
	}
}

// Calibration normalization: a uniformly slower machine (every kernel
// AND the calibration loop at 0.7x) is not a regression; one kernel at
// 0.7x while calibration holds still is.
func TestCalibrationNormalizesUniformDrift(t *testing.T) {
	base := testSnapshot()
	base.CalibOpsPerSec = 1e9

	uniform := testSnapshot()
	uniform.CalibOpsPerSec = 0.7e9
	for i := range uniform.Kernels {
		uniform.Kernels[i].OpsPerSec *= 0.7
		uniform.Kernels[i].OpsMAD *= 0.7
	}
	report := Check(base, uniform, DefaultGate())
	if len(report.Regressions) != 0 || report.Failed(true) {
		t.Fatalf("uniform 30%% drift with matching calibration gated:\n%s", report.Table())
	}
	if report.SpeedFactor > 0.71 || report.SpeedFactor < 0.69 {
		t.Fatalf("SpeedFactor = %g, want ~0.7", report.SpeedFactor)
	}
	for _, d := range report.Deltas {
		if d.Ratio < 0.99 || d.Ratio > 1.01 {
			t.Errorf("%s: drift-corrected ratio %g, want ~1", d.Key, d.Ratio)
		}
	}
	if !strings.Contains(report.Table(), "calibration speed factor") {
		t.Error("table must report the applied speed factor")
	}

	// Same calibration, one kernel halved: a genuine regression.
	const key = "fig4 / Advanced (VML batch)"
	genuine := slow(base, key, 0.5)
	genuine.CalibOpsPerSec = base.CalibOpsPerSec
	report = Check(base, genuine, DefaultGate())
	if len(report.Regressions) != 1 || report.Regressions[0].Key != key {
		t.Fatalf("genuine regression not isolated:\n%s", report.Table())
	}

	// Missing calibration on either side: factor 1, plain comparison.
	nocalib := testSnapshot()
	report = Check(base, nocalib, DefaultGate())
	if report.SpeedFactor < 0.999 || report.SpeedFactor > 1.001 {
		t.Fatalf("missing calibration must yield factor 1, got %g", report.SpeedFactor)
	}
}

func TestCalibrate(t *testing.T) {
	o := Opts{Warmup: 1, Reps: 2, MinDuration: time.Millisecond}
	// Load on the host only ever slows a calibration run, so the fastest
	// of a few runs is the stable statistic; a single run is not.
	fastest := func() float64 {
		best := 0.0
		for i := 0; i < 3; i++ {
			best = max(best, Calibrate(o))
		}
		return best
	}
	a := fastest()
	if a <= 0 {
		t.Fatalf("Calibrate = %g, want positive", a)
	}
	// Two immediate calibrations agree within 3x — a sanity bound loose
	// enough for any CI machine, tight enough to catch unit mistakes.
	b := fastest()
	if a/b > 3 || b/a > 3 {
		t.Fatalf("calibration unstable: %g vs %g", a, b)
	}
}

func TestReportRenderings(t *testing.T) {
	base := testSnapshot()
	report := Check(base, slow(base, "fig4 / Advanced (VML batch)", 0.5), DefaultGate())
	table := report.Table()
	for _, want := range []string{"REGRESSION", "fig4 / Advanced (VML batch)", "ratio", "1 regression(s)"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	md := report.Markdown()
	for _, want := range []string{"### Benchmark delta", "| kernel |", "**REGRESSION**", "0.500"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestAllocGate pins the allocs/op regression rule: growth beyond
// tolerance+slack fails only on GateAllocs records, is never rescaled
// by calibration, and shrinkage always passes.
func TestAllocGate(t *testing.T) {
	g := DefaultGate()
	base := Record{Experiment: "servepath", Label: "/price", Units: "options/s",
		OpsPerSec: 1e6, OpsMAD: 1e3, AllocsPerOp: 20, GateAllocs: true}

	grown := base
	grown.AllocsPerOp = 25 // +25% > 10% + 0.5 slack
	if !g.AllocRegression(base, grown) {
		t.Fatal("25% allocs/op growth on a gated record must regress")
	}
	within := base
	within.AllocsPerOp = 22.5 // = 20*1.10 + 0.5 exactly: at, not beyond
	if g.AllocRegression(base, within) {
		t.Fatal("growth within tolerance+slack must pass")
	}
	shrunk := base
	shrunk.AllocsPerOp = 10
	if g.AllocRegression(base, shrunk) {
		t.Fatal("an allocation reduction must never regress")
	}
	ungated := grown
	ungated.GateAllocs = false
	if g.AllocRegression(base, ungated) {
		t.Fatal("records without GateAllocs must not be alloc-gated")
	}

	// End to end through Check: the alloc regression fails the report
	// even though throughput is unchanged, and calibration drift must
	// not distort the alloc comparison.
	mk := func(k Record, calib float64) *Snapshot {
		return &Snapshot{Schema: SchemaVersion, Kernels: []Record{k}, CalibOpsPerSec: calib,
			Env: Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 1, NumCPU: 1, CPUModel: "T"}}
	}
	rep := Check(mk(base, 2e9), mk(grown, 1e9), g)
	if len(rep.Regressions) != 1 || !rep.Deltas[0].AllocRegression {
		t.Fatalf("Check missed the alloc regression: %+v", rep.Deltas)
	}
	if rep.Deltas[0].Regression {
		t.Fatal("throughput rule fired on an alloc-only change")
	}
	if !rep.Failed(false) {
		t.Fatal("alloc regression on a matching env must gate")
	}
	if !strings.Contains(rep.Table(), "ALLOC-REGRESSION") {
		t.Fatalf("table lacks the alloc verdict:\n%s", rep.Table())
	}
	ok := Check(mk(base, 1e9), mk(within, 1e9), g)
	if ok.Failed(false) {
		t.Fatal("within-tolerance alloc growth must pass Check")
	}
}
