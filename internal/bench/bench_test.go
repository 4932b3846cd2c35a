package bench

import (
	"math"
	"strings"
	"testing"

	"finbench/internal/benchreg"
)

// The model-vs-paper assertions below encode the paper's *stated* relations
// (the reproduction targets). Absolute bar heights that exist only as
// pixels in the figures are not asserted; EXPERIMENTS.md discusses them.

const testScale = 0.05

func model(t *testing.T, id string) *Result {
	t.Helper()
	e := ByID(id)
	if e == nil {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := e.Model(testScale)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return res
}

func within(t *testing.T, what string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.3g, want in [%.3g, %.3g]", what, got, lo, hi)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"tab1", "fig4", "fig5", "fig6", "tab2", "fig8", "ninja",
		"ablate-tile", "ablate-rng", "ablate-qmc", "ablate-width", "servepath",
		"scenario", "streampath", "heavy"}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s (paper order)", i, exps[i].ID, id)
		}
	}
	if ByID("nope") != nil {
		t.Fatal("ByID returned unknown experiment")
	}
}

func TestTab1ContainsTableI(t *testing.T) {
	res := model(t, "tab1")
	joined := strings.Join(res.Notes, "\n")
	for _, want := range []string{"SNB-EP", "KNC", "2 x 8 x 2", "1 x 60 x 4"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("tab1 missing %q", want)
		}
	}
}

// Fig. 4 relations: reference 3x slower on KNC; AOS->SOA ~10x on KNC;
// advanced at 84%/60% of the B/40 bound; VML no benefit on KNC.
func TestFig4Shape(t *testing.T) {
	res := model(t, "fig4")
	ref, inter, adv := res.Rows[0], res.Rows[1], res.Rows[2]

	within(t, "ref SNB/KNC ratio", ref.Model[ColSNB]/ref.Model[ColKNC], 1.8, 4.5)
	within(t, "KNC SOA gain", inter.Model[ColKNC]/ref.Model[ColKNC], 7, 14)
	// Monotone ladder on both machines (VML may only tie on KNC).
	for _, m := range []string{ColSNB, ColKNC} {
		if !(ref.Model[m] < inter.Model[m] && inter.Model[m] <= adv.Model[m]*1.05) {
			t.Errorf("%s ladder not monotone: %g %g %g", m, ref.Model[m], inter.Model[m], adv.Model[m])
		}
	}
	within(t, "adv SNB fraction of bound", adv.Model[ColSNB]/res.Bounds[ColSNB], 0.55, 0.95)
	within(t, "adv KNC fraction of bound", adv.Model[ColKNC]/res.Bounds[ColKNC], 0.45, 0.80)
	// SNB-EP runs closer to its bandwidth roof than KNC (84% vs 60%).
	if adv.Model[ColSNB]/res.Bounds[ColSNB] < adv.Model[ColKNC]/res.Bounds[ColKNC]-0.25 {
		t.Error("SNB-EP should sit closer to its bandwidth bound than KNC")
	}
}

// Fig. 5 relations: SIMD across options hardly improves; register tiling
// >2x combined; unrolling helps KNC (~1.4x) but not SNB-EP; final KNC/SNB
// ~2.6x; SNB within 10%, KNC within 30% of the flop bound.
func TestFig5Shape(t *testing.T) {
	res := model(t, "fig5")
	// Rows 0..3 are N=1024.
	ref, inter, tile, unroll := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	within(t, "SNB intermediate gain", inter.Model[ColSNB]/ref.Model[ColSNB], 0.9, 1.35)
	within(t, "SNB tiling gain over ref", tile.Model[ColSNB]/ref.Model[ColSNB], 1.7, 3.0)
	within(t, "KNC tiling gain over ref", tile.Model[ColKNC]/ref.Model[ColKNC], 1.5, 3.0)
	within(t, "KNC unroll gain", unroll.Model[ColKNC]/tile.Model[ColKNC], 1.2, 1.6)
	within(t, "SNB unroll gain", unroll.Model[ColSNB]/tile.Model[ColSNB], 0.95, 1.25)
	within(t, "final KNC/SNB", unroll.Model[ColKNC]/unroll.Model[ColSNB], 2.0, 3.2)
	within(t, "SNB fraction of flop bound", unroll.Model[ColSNB]/res.Bounds[ColSNB], 0.75, 1.0)
	within(t, "KNC fraction of flop bound", unroll.Model[ColKNC]/res.Bounds[ColKNC], 0.55, 0.85)
	// N=2048 rows (4..7) scale by ~4x in work.
	within(t, "2048/1024 ref scaling", res.Rows[0].Model[ColSNB]/res.Rows[4].Model[ColSNB], 3.5, 4.5)
}

// Fig. 6 relations: basic KNC ~25% slower than SNB-EP; intermediate
// bandwidth-bound with KNC/SNB = bandwidth ratio (~1.97); advanced
// compute-bound with KNC ~2x.
func TestFig6Shape(t *testing.T) {
	res := model(t, "fig6")
	basic, inter, il, c2c := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	within(t, "basic KNC/SNB", basic.Model[ColKNC]/basic.Model[ColSNB], 0.6, 0.95)
	within(t, "intermediate KNC/SNB", inter.Model[ColKNC]/inter.Model[ColSNB], 1.75, 2.2)
	// Streamed variant pinned at the bandwidth roof on both machines.
	within(t, "intermediate SNB at bound", inter.Model[ColSNB]/res.Bounds[ColSNB], 0.9, 1.05)
	within(t, "intermediate KNC at bound", inter.Model[ColKNC]/res.Bounds[ColKNC], 0.9, 1.05)
	within(t, "C2C KNC/SNB", c2c.Model[ColKNC]/c2c.Model[ColSNB], 1.5, 2.4)
	// Ladder monotone.
	for _, m := range []string{ColSNB, ColKNC} {
		if !(basic.Model[m] < inter.Model[m] && inter.Model[m] < il.Model[m] && il.Model[m] < c2c.Model[m]) {
			t.Errorf("%s ladder not monotone", m)
		}
	}
}

// Table II: all eight cells are stated in the paper; the model must land
// within 15% of each (it lands within ~4% at calibration time).
func TestTab2WithinTolerance(t *testing.T) {
	res := model(t, "tab2")
	for _, row := range res.Rows {
		for _, m := range []string{ColSNB, ColKNC} {
			p, g := row.Paper[m], row.Model[m]
			if p == 0 {
				continue
			}
			if math.Abs(g-p)/p > 0.15 {
				t.Errorf("%s %s: model %.3g vs paper %.3g (%.0f%% off)",
					row.Label, m, g, p, 100*math.Abs(g-p)/p)
			}
		}
	}
}

// Fig. 8 relations: reference KNC ~1.3x faster; SIMD gains; data-structure
// transform gains ~1.45x/1.56x; advanced KNC/SNB ~1.8x.
func TestFig8Shape(t *testing.T) {
	res := model(t, "fig8")
	ref, inter, adv := res.Rows[0], res.Rows[1], res.Rows[2]
	within(t, "ref KNC/SNB", ref.Model[ColKNC]/ref.Model[ColSNB], 1.1, 1.7)
	within(t, "SNB SIMD gain", adv.Model[ColSNB]/ref.Model[ColSNB], 1.6, 3.5)
	within(t, "KNC SIMD gain", adv.Model[ColKNC]/ref.Model[ColKNC], 1.8, 4.5)
	within(t, "SNB reorder gain", adv.Model[ColSNB]/inter.Model[ColSNB], 1.2, 1.8)
	within(t, "KNC reorder gain", adv.Model[ColKNC]/inter.Model[ColKNC], 1.1, 1.8)
	within(t, "advanced KNC/SNB", adv.Model[ColKNC]/adv.Model[ColSNB], 1.4, 2.1)
}

// Ninja summary: per-kernel gaps sane; optimized KNC/SNB ratios near the
// paper's 2.5x (compute) and 2x (bandwidth).
func TestNinjaShape(t *testing.T) {
	res := model(t, "ninja")
	var avg, cb, bb Row
	for _, row := range res.Rows {
		switch {
		case strings.HasPrefix(row.Label, "average"):
			avg = row
		case strings.Contains(row.Label, "(compute-bound)") && strings.HasPrefix(row.Label, "optimized"):
			cb = row
		case strings.Contains(row.Label, "(bandwidth-bound)") && strings.HasPrefix(row.Label, "optimized"):
			bb = row
		}
	}
	within(t, "avg gap SNB", avg.Model[ColSNB], 1.3, 3.5)
	within(t, "avg gap KNC", avg.Model[ColKNC], 2.5, 9.5)
	if avg.Model[ColKNC] <= avg.Model[ColSNB] {
		t.Error("KNC Ninja gap must exceed SNB-EP's (in-order cores are less forgiving)")
	}
	within(t, "optimized KNC/SNB compute-bound", cb.Model[ColKNC], 1.6, 3.0)
	within(t, "optimized KNC/SNB bandwidth-bound", bb.Model[ColKNC], 1.3, 2.5)
}

func TestTableRendering(t *testing.T) {
	res := model(t, "fig4")
	table := res.Table()
	for _, want := range []string{"SNB-EP:paper", "KNC:model", "Basic (Reference, AOS)", "roofline bound"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	csv := res.CSV()
	if !strings.Contains(csv, "label,snb_paper") || len(strings.Split(csv, "\n")) < 4 {
		t.Fatalf("CSV malformed:\n%s", csv)
	}
}

func TestProvenanceString(t *testing.T) {
	if Stated.String() != "stated" || Derived.String() != "derived" || None.String() != "-" {
		t.Fatal("Provenance strings wrong")
	}
}

func TestHumanUnits(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "-"}, {5, "5"}, {1500, "1.5K"}, {2.5e6, "2.5M"}, {3e9, "3G"},
	}
	for _, c := range cases {
		if got := human(c.v); got != c.want {
			t.Fatalf("human(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}

// Measure mode smoke test: every experiment with a Measure function
// builds its rows untimed — each with a kernel call and an item count —
// and Time fills every row with positive host throughput, a repetition
// count and a noise bound (benchreg's median±MAD harness).
func TestMeasureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("host timing in -short mode")
	}
	for _, e := range Experiments() {
		if e.Measure == nil {
			continue
		}
		res, err := e.Measure(0.01)
		if err != nil {
			t.Fatalf("%s measure: %v", e.ID, err)
		}
		for _, row := range res.Rows {
			if row.Run == nil || row.Items <= 0 || row.Host.Reps != 0 {
				t.Errorf("%s %q: Measure must build an untimed row with a kernel and items (items=%d reps=%d)", e.ID, row.Label, row.Items, row.Host.Reps)
			}
		}
		res.Time(quickOpts)
		for _, row := range res.Rows {
			if row.Host.OpsPerSec <= 0 {
				t.Errorf("%s %q: host throughput %g", e.ID, row.Label, row.Host.OpsPerSec)
			}
			if row.Host.Reps != quickOpts.Reps {
				t.Errorf("%s %q: %d reps recorded, want %d", e.ID, row.Label, row.Host.Reps, quickOpts.Reps)
			}
			if row.Host.OpsMAD < 0 || row.Host.Items != row.Items {
				t.Errorf("%s %q: bad noise/items fields (mad=%g items=%d)", e.ID, row.Label, row.Host.OpsMAD, row.Host.Items)
			}
		}
	}
}

// Host-mode Table and CSV must carry the median±MAD columns.
func TestHostTableAndCSV(t *testing.T) {
	res := &Result{ID: "x", Title: "host fmt", Units: "options/s", Rows: []Row{
		{Label: "Scalar reference", Host: benchreg.Sample{OpsPerSec: 2.5e6, OpsMAD: 1.5e4, Reps: 5}},
		{Label: "Advanced", Host: benchreg.Sample{OpsPerSec: 8e6, OpsMAD: 2e4, Reps: 5}},
	}}
	table := res.Table()
	for _, want := range []string{"host", "±mad", "reps", "2.5M", "15K", "    5"} {
		if !strings.Contains(table, want) {
			t.Errorf("host table missing %q:\n%s", want, table)
		}
	}
	csv := res.CSV()
	if !strings.Contains(csv, "host,host_mad,provenance") {
		t.Fatalf("CSV header missing host_mad:\n%s", csv)
	}
	if !strings.Contains(csv, "2.5e+06,15000") {
		t.Fatalf("CSV row missing host±mad values:\n%s", csv)
	}
}

// Ablation shapes: tile throughput rises monotonically to a plateau, the
// width sweep separates SOA scaling from AOS gather collapse, and QMC
// error sits below MC at every budget and falls as the budget grows.
func TestAblateTileShape(t *testing.T) {
	res := model(t, "ablate-tile")
	for i := 1; i < len(res.Rows); i++ {
		for _, m := range []string{ColSNB, ColKNC} {
			if res.Rows[i].Model[m] < res.Rows[i-1].Model[m]*0.98 {
				t.Errorf("%s: %s below %s", m, res.Rows[i].Label, res.Rows[i-1].Label)
			}
		}
	}
	// Diminishing returns: the last doubling buys < 10%.
	last, prev := res.Rows[len(res.Rows)-1], res.Rows[len(res.Rows)-2]
	if last.Model[ColKNC] > prev.Model[ColKNC]*1.10 {
		t.Error("tile sweep did not plateau")
	}
}

func TestAblateWidthShape(t *testing.T) {
	res := model(t, "ablate-width")
	// SOA scales up with width throughout.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Model["SOA"] <= res.Rows[i-1].Model["SOA"] {
			t.Errorf("SOA did not scale at %s", res.Rows[i].Label)
		}
	}
	// AOS at width 8 sits far below SOA at width 8 (the gather collapse).
	w8 := res.Rows[len(res.Rows)-1]
	if w8.Model["AOS"] > w8.Model["SOA"]/5 {
		t.Errorf("AOS %g not collapsed vs SOA %g at width 8", w8.Model["AOS"], w8.Model["SOA"])
	}
	// Scalar AOS (width 1) beats vectorized AOS (width 8) on KNC — the
	// counter-intuitive result the paper's 3x-slower reference reflects.
	w1 := res.Rows[0]
	if w1.Model["AOS"] < w8.Model["AOS"] {
		t.Error("width-1 AOS should beat width-8 AOS on KNC (gathers dominate)")
	}
}

func TestAblateQMCShape(t *testing.T) {
	res := model(t, "ablate-qmc")
	for i, row := range res.Rows {
		if row.Model["QMC"] >= row.Model["MC"] {
			t.Errorf("%s: QMC error %g not below MC %g", row.Label, row.Model["QMC"], row.Model["MC"])
		}
		if i > 0 && row.Model["QMC"] >= res.Rows[i-1].Model["QMC"] {
			prev := res.Rows[i-1]
			t.Errorf("%s: QMC error %g did not fall from %s's %g", row.Label, row.Model["QMC"], prev.Label, prev.Model["QMC"])
		}
	}
}

// BenchmarkExperiments runs every Measure row of every experiment as one
// sub-benchmark named <id>/<label>, at `benchreg run -short`'s scale
// (0.02): the rows benchreg snapshots and finbench -mode measure time,
// under testing.B. Run all of them once with
// `go test -run '^$' -bench . -benchtime 1x ./internal/bench`, or one
// experiment with -bench 'Experiments/heavy'.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range Experiments() {
		if e.Measure == nil {
			continue
		}
		res, err := e.Measure(0.02)
		if err != nil {
			b.Fatalf("%s measure: %v", e.ID, err)
		}
		for _, row := range res.Rows {
			b.Run(e.ID+"/"+row.Label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					row.Run()
				}
				b.ReportMetric(float64(row.Items)*float64(b.N)/b.Elapsed().Seconds(), "items/s")
			})
		}
	}
}
