package bench

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"finbench/internal/benchreg"
)

// quickOpts keeps Collect fast enough for the tier-1 suite: the test
// verifies plumbing (keys, units, mixes, round-trip), not timing quality.
var quickOpts = benchreg.Opts{Warmup: 1, Reps: 2, MinDuration: time.Millisecond}

func TestCollectSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("host timing in -short mode")
	}
	snap, err := Collect(0.01, quickOpts, "all")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Kernels) < 15 {
		t.Fatalf("only %d kernels collected; every Measure experiment must contribute", len(snap.Kernels))
	}
	seen := map[string]bool{}
	experiments := map[string]bool{}
	for _, k := range snap.Kernels {
		if seen[k.Key()] {
			t.Errorf("duplicate kernel key %q", k.Key())
		}
		seen[k.Key()] = true
		experiments[k.Experiment] = true
		if k.OpsPerSec <= 0 || k.MedianSec <= 0 {
			t.Errorf("%s: non-positive timing (ops=%g sec=%g)", k.Key(), k.OpsPerSec, k.MedianSec)
		}
		if k.Units == "" || k.Reps != quickOpts.Reps || k.Items <= 0 {
			t.Errorf("%s: incomplete record %+v", k.Key(), k)
		}
	}
	for _, id := range []string{"fig4", "fig5", "fig6", "tab2", "fig8", "ablate-rng", "heavy"} {
		if !experiments[id] {
			t.Errorf("experiment %s missing from snapshot", id)
		}
	}
	// Every heavy row is one served request, so its allocs/op is gated.
	heavy := 0
	for _, k := range snap.Kernels {
		if k.Experiment == "heavy" {
			heavy++
			if !k.GateAllocs {
				t.Errorf("%s: heavy row not alloc-gated", k.Key())
			}
		}
	}
	if heavy != 10 {
		t.Errorf("%d heavy rows collected, want 10", heavy)
	}
	// The five paper experiments carry op mixes.
	for _, id := range []string{"fig4", "fig5", "fig6", "tab2", "fig8"} {
		if len(snap.Mixes[id]) == 0 {
			t.Errorf("experiment %s has no op mix", id)
		}
	}
	if snap.Env.GoVersion == "" {
		t.Error("snapshot missing env fingerprint")
	}

	// Full pipeline: write -> read -> self-check is green.
	path := filepath.Join(t.TempDir(), "BENCH_t.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := benchreg.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	report := benchreg.Check(snap, loaded, benchreg.DefaultGate())
	if report.Failed(true) || len(report.Regressions) != 0 {
		t.Fatalf("self-check regressed:\n%s", report.Table())
	}
}

func TestCollectSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("host timing in -short mode")
	}
	snap, err := Collect(0.01, quickOpts, "fig4")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range snap.Kernels {
		if k.Experiment != "fig4" {
			t.Fatalf("unexpected experiment %q in filtered snapshot", k.Experiment)
		}
	}
	if len(snap.Kernels) != 6 {
		t.Fatalf("fig4 has %d measured kernels, want 6 (4 full-batch + 2 small-batch)", len(snap.Kernels))
	}
}

func TestCollectRejectsBadInputs(t *testing.T) {
	if _, err := Collect(0, quickOpts, "all"); err == nil || !strings.Contains(err.Error(), "scale") {
		t.Errorf("scale 0: err = %v", err)
	}
	if _, err := Collect(1.5, quickOpts, "all"); err == nil {
		t.Error("scale > 1 accepted")
	}
	if _, err := Collect(0.01, quickOpts, "no-such-experiment"); err == nil {
		t.Error("unknown experiment accepted")
	}
	// tab1 exists but is model-only: selecting it alone yields no kernels.
	if _, err := Collect(0.01, quickOpts, "tab1"); err == nil || !strings.Contains(err.Error(), "no Measure") {
		t.Errorf("model-only experiment: err = %v", err)
	}
}
