package machine

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"finbench/internal/perf"
)

func approx(got, want, rel float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) <= rel
}

// peakFromParams recomputes peak DP GFLOP/s from the microarchitectural
// parameters: lanes x 2 (FMA, or SNB-EP's separate mul and add ports) x
// cores x clock.
func peakFromParams(m *Machine) float64 {
	return float64(m.SIMDWidthDP) * 2 * float64(m.Cores()) * m.ClockGHz
}

func TestTableIParameters(t *testing.T) {
	s := SNBEP()
	if s.Cores() != 16 || s.Threads() != 32 {
		t.Fatalf("SNB-EP cores/threads = %d/%d, want 16/32", s.Cores(), s.Threads())
	}
	if s.SIMDWidthDP != 4 || s.HasFMA || !s.OutOfOrder {
		t.Fatalf("SNB-EP uarch flags wrong: %+v", s)
	}
	if s.StreamBW != 76 || s.ClockGHz != 2.7 {
		t.Fatalf("SNB-EP Table I values wrong: %+v", s)
	}
	k := KNC()
	if k.Cores() != 60 || k.Threads() != 240 {
		t.Fatalf("KNC cores/threads = %d/%d, want 60/240", k.Cores(), k.Threads())
	}
	if k.SIMDWidthDP != 8 || !k.HasFMA || k.OutOfOrder {
		t.Fatalf("KNC uarch flags wrong: %+v", k)
	}
	if k.StreamBW != 150 || k.ClockGHz != 1.09 || k.L3KB != 0 {
		t.Fatalf("KNC Table I values wrong: %+v", k)
	}
}

// The paper (Sec. III-A) derives KNC's peak advantage as 60/16 x 512/256 x
// 1.09/2.7 = 3.2x over SNB-EP.
func TestPeakRatioMatchesPaper(t *testing.T) {
	s, k := SNBEP(), KNC()
	ratio := (60.0 / 16) * (512.0 / 256) * (1.09 / 2.7)
	if !approx(peakFromParams(k)/peakFromParams(s), ratio, 0.01) {
		t.Fatalf("peak ratio = %g, want %g", peakFromParams(k)/peakFromParams(s), ratio)
	}
	// The paper rounds this product to "3.2x"; the exact value is 3.03.
	if !approx(ratio, 3.2, 0.08) {
		t.Fatalf("paper's stated 3.2x check failed: %g", ratio)
	}
}

func TestPeakFromParamsNearTableI(t *testing.T) {
	s := SNBEP()
	if !approx(peakFromParams(s), s.PeakDPGFLOPs, 0.01) {
		t.Fatalf("SNB-EP recomputed peak %g != Table I %g", peakFromParams(s), s.PeakDPGFLOPs)
	}
	// KNC Table I peak (1063) is computed with 61 cores; our 60-core model
	// gives 1046, within 2%.
	k := KNC()
	if !approx(peakFromParams(k), k.PeakDPGFLOPs, 0.02) {
		t.Fatalf("KNC recomputed peak %g != Table I %g", peakFromParams(k), k.PeakDPGFLOPs)
	}
}

func TestByName(t *testing.T) {
	if ByName("snb-ep") == nil || ByName("KNC") == nil {
		t.Fatal("ByName case-insensitive lookup failed")
	}
	if ByName("nope") != nil {
		t.Fatal("ByName returned a machine for an unknown name")
	}
}

func TestMachinesOrder(t *testing.T) {
	ms := Machines()
	if len(ms) != 2 || ms[0].Name != "SNB-EP" || ms[1].Name != "KNC" {
		t.Fatalf("Machines() = %v", ms)
	}
}

func TestBoundString(t *testing.T) {
	if ComputeBound.String() != "compute" || BandwidthBound.String() != "bandwidth" {
		t.Fatal("Bound.String wrong")
	}
}

func TestPredictComputeBound(t *testing.T) {
	m := SNBEP()
	var c perf.Counts
	c.Width = 4
	c.Add(perf.OpVecFMA, 1e9) // heavy compute, no traffic
	p := m.Predict(c)
	if p.Bound != ComputeBound {
		t.Fatalf("bound = %v, want compute", p.Bound)
	}
	wantSec := 1e9 * m.Cost[perf.OpVecFMA] / (16 * 2.7e9)
	if !approx(p.Sec, wantSec, 1e-9) {
		t.Fatalf("Sec = %g, want %g", p.Sec, wantSec)
	}
	if p.MemSec != 0 {
		t.Fatalf("MemSec = %g, want 0", p.MemSec)
	}
}

func TestPredictBandwidthBound(t *testing.T) {
	m := SNBEP()
	var c perf.Counts
	c.AddBytes(76e9, 0) // exactly one second of STREAM traffic
	p := m.Predict(c)
	if p.Bound != BandwidthBound {
		t.Fatalf("bound = %v, want bandwidth", p.Bound)
	}
	if !approx(p.Sec, 1.0, 1e-12) {
		t.Fatalf("Sec = %g, want 1", p.Sec)
	}
}

func TestPredictRooflineMax(t *testing.T) {
	m := KNC()
	var c perf.Counts
	c.Add(perf.OpVecFMA, 1000)
	c.AddBytes(1e12, 0) // memory dominates
	p := m.Predict(c)
	if p.Sec != p.MemSec || p.Sec < p.ComputeSec {
		t.Fatalf("roofline max violated: %+v", p)
	}
}

func TestPredictGFLOPsAtPeak(t *testing.T) {
	// A pure-FMA mix should run at the machine's recomputed peak.
	for _, m := range Machines() {
		c := perf.Counts{Width: m.SIMDWidthDP}
		c.Add(perf.OpVecFMA, 1e8)
		p := m.Predict(c)
		if !approx(p.GFLOPs, peakFromParams(m), 1e-6) {
			t.Fatalf("%s: pure-FMA GFLOPs = %g, want peak %g", m.Name, p.GFLOPs, peakFromParams(m))
		}
	}
}

func TestSNBDualIssueMulAddPeak(t *testing.T) {
	// On SNB-EP a balanced mul+add mix must also reach peak (separate
	// ports), reproducing the 346 GFLOP/s Table I figure without FMA.
	m := SNBEP()
	c := perf.Counts{Width: 4}
	c.Add(perf.OpVecMul, 5e7)
	c.Add(perf.OpVecAdd, 5e7)
	p := m.Predict(c)
	if !approx(p.GFLOPs, peakFromParams(m), 1e-6) {
		t.Fatalf("mul+add GFLOPs = %g, want %g", p.GFLOPs, peakFromParams(m))
	}
}

func TestThroughput(t *testing.T) {
	m := SNBEP()
	c := perf.Counts{Items: 1000}
	c.AddBytes(40*1000, 0)
	got := m.Throughput(c)
	want := m.StreamBW * 1e9 / 40
	if !approx(got, want, 1e-9) {
		t.Fatalf("Throughput = %g, want %g", got, want)
	}
}

func TestThroughputZeroMix(t *testing.T) {
	m := KNC()
	if got := m.Throughput(perf.Counts{Items: 5}); got != 0 {
		t.Fatalf("Throughput of empty mix = %g, want 0", got)
	}
}

func TestTableIRendering(t *testing.T) {
	s := TableI()
	for _, want := range []string{"SNB-EP", "KNC", "2 x 8 x 2", "1 x 60 x 4", "2.70", "1.09", "346", "1063", "76", "150", "GDDR"} {
		if !strings.Contains(s, want) {
			t.Fatalf("TableI missing %q:\n%s", want, s)
		}
	}
}

// Property: predicted time is monotone in every op count.
func TestPredictMonotoneQuick(t *testing.T) {
	m := KNC()
	f := func(base uint16, extra uint16, opIdx uint8) bool {
		op := perf.Op(int(opIdx) % perf.NumOps)
		var a, b perf.Counts
		a.Add(op, uint64(base))
		b.Add(op, uint64(base)+uint64(extra))
		return m.Predict(b).Sec >= m.Predict(a).Sec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Predict is linear in the mix (doubling all counts doubles time).
func TestPredictLinearQuick(t *testing.T) {
	m := SNBEP()
	f := func(nf, ng uint16, rb uint32) bool {
		var c perf.Counts
		c.Add(perf.OpVecFMA, uint64(nf))
		c.Add(perf.OpGather, uint64(ng))
		c.AddBytes(uint64(rb), 0)
		var d perf.Counts
		d.Add(perf.OpVecFMA, 2*uint64(nf))
		d.Add(perf.OpGather, 2*uint64(ng))
		d.AddBytes(2*uint64(rb), 0)
		p1, p2 := m.Predict(c), m.Predict(d)
		return approx(p2.Sec, 2*p1.Sec, 1e-12) || (p1.Sec == 0 && p2.Sec == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Every op class must have a strictly positive cost on both machines except
// where physically free; a zero cost would silently drop work from the model.
func TestAllCostsPositive(t *testing.T) {
	for _, m := range Machines() {
		for op := 0; op < perf.NumOps; op++ {
			if m.Cost[op] <= 0 {
				t.Errorf("%s: cost[%v] = %g, want > 0", m.Name, perf.Op(op), m.Cost[op])
			}
		}
	}
}

// KNC's in-order core must charge at least as much as SNB-EP's OOO core for
// the overhead classes the paper calls out (moves, unaligned loads, gathers).
func TestInOrderOverheadOrdering(t *testing.T) {
	s, k := SNBEP(), KNC()
	for _, op := range []perf.Op{perf.OpVecMisc, perf.OpVecLoadU, perf.OpGather, perf.OpScatter, perf.OpScalar} {
		if k.Cost[op] <= s.Cost[op] {
			t.Errorf("cost[%v]: KNC %g <= SNB-EP %g", op, k.Cost[op], s.Cost[op])
		}
	}
}
