package finbench

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

var (
	tOpt = Option{Type: Call, Style: European, Spot: 100, Strike: 100, Expiry: 1}
	tMkt = Market{Rate: 0.05, Volatility: 0.2}
)

func TestPriceClosedFormKnownValue(t *testing.T) {
	res, err := PriceCtx(context.Background(), tOpt, tMkt, ClosedForm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-10.450583572185565) > 1e-12 {
		t.Fatalf("call = %.15f", res.Price)
	}
	put := tOpt
	put.Type = Put
	res, err = PriceCtx(context.Background(), put, tMkt, ClosedForm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-5.573526022256971) > 1e-12 {
		t.Fatalf("put = %.15f", res.Price)
	}
}

// Every method must agree on a European call to its own discretization
// accuracy.
func TestMethodsAgreeEuropean(t *testing.T) {
	want, _ := PriceCtx(context.Background(), tOpt, tMkt, ClosedForm, nil)
	for _, method := range []Method{BinomialTree, FiniteDifference, MonteCarlo} {
		t.Run(method.String(), func(t *testing.T) {
			res, err := PriceCtx(context.Background(), tOpt, tMkt, method, &Config{MCPaths: 1 << 17})
			if err != nil {
				t.Fatalf("%v: %v", method, err)
			}
			tol := 0.05
			if method == MonteCarlo {
				tol = 5 * res.StdErr
			}
			if math.Abs(res.Price-want.Price) > tol {
				t.Fatalf("%v price %g vs closed form %g", method, res.Price, want.Price)
			}
		})
	}
}

func TestMethodsAgreeEuropeanPut(t *testing.T) {
	put := tOpt
	put.Type = Put
	want, _ := PriceCtx(context.Background(), put, tMkt, ClosedForm, nil)
	for _, method := range []Method{BinomialTree, FiniteDifference, MonteCarlo} {
		t.Run(method.String(), func(t *testing.T) {
			res, err := PriceCtx(context.Background(), put, tMkt, method, &Config{MCPaths: 1 << 16})
			if err != nil {
				t.Fatalf("%v: %v", method, err)
			}
			tol := 0.05
			if method == MonteCarlo {
				tol = 5*res.StdErr + 1e-9
			}
			if math.Abs(res.Price-want.Price) > tol {
				t.Fatalf("%v put %g vs closed form %g", method, res.Price, want.Price)
			}
		})
	}
}

// Binomial and Crank-Nicolson must agree on the American put.
func TestAmericanPutCrossMethod(t *testing.T) {
	amer := Option{Type: Put, Style: American, Spot: 100, Strike: 110, Expiry: 1}
	bin, err := PriceCtx(context.Background(), amer, tMkt, BinomialTree, &Config{BinomialSteps: 2048})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := PriceCtx(context.Background(), amer, tMkt, FiniteDifference, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bin.Price-fd.Price) > 0.03*bin.Price {
		t.Fatalf("binomial %g vs crank-nicolson %g", bin.Price, fd.Price)
	}
	euro := amer
	euro.Style = European
	ep, _ := PriceCtx(context.Background(), euro, tMkt, ClosedForm, nil)
	if bin.Price < ep.Price-1e-9 {
		t.Fatal("American put below European")
	}
}

func TestAmericanCallEqualsEuropean(t *testing.T) {
	call := Option{Type: Call, Style: American, Spot: 100, Strike: 95, Expiry: 1}
	euro, _ := PriceCtx(context.Background(), Option{Type: Call, Style: European, Spot: 100, Strike: 95, Expiry: 1}, tMkt, ClosedForm, nil)
	for _, method := range []Method{BinomialTree, FiniteDifference} {
		t.Run(method.String(), func(t *testing.T) {
			res, err := PriceCtx(context.Background(), call, tMkt, method, nil)
			if err != nil {
				t.Fatalf("%v: %v", method, err)
			}
			if math.Abs(res.Price-euro.Price) > 0.05 {
				t.Fatalf("%v American call %g vs European %g", method, res.Price, euro.Price)
			}
		})
	}
}

func TestPriceErrors(t *testing.T) {
	if _, err := PriceCtx(context.Background(), Option{}, tMkt, ClosedForm, nil); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("zero option: %v", err)
	}
	amer := tOpt
	amer.Style = American
	if _, err := PriceCtx(context.Background(), amer, tMkt, ClosedForm, nil); !errors.Is(err, ErrMethodStyle) {
		t.Fatalf("closed-form American: %v", err)
	}
	if _, err := PriceCtx(context.Background(), amer, tMkt, MonteCarlo, nil); !errors.Is(err, ErrMethodStyle) {
		t.Fatalf("MC American: %v", err)
	}
	if _, err := PriceCtx(context.Background(), tOpt, tMkt, Method(99), nil); err == nil {
		t.Fatal("unknown method did not error")
	}
}

// Every pricing entry point answers ErrInvalidOption for a non-finite
// spot, strike, expiry, volatility or rate, on every method (a NaN fails
// every comparison, so a "<= 0" test alone let it through to a NaN
// price).
func TestNonFiniteInputsRejected(t *testing.T) {
	fields := []struct {
		name string
		set  func(o *Option, m *Market, v float64)
	}{
		{"spot", func(o *Option, _ *Market, v float64) { o.Spot = v }},
		{"strike", func(o *Option, _ *Market, v float64) { o.Strike = v }},
		{"expiry", func(o *Option, _ *Market, v float64) { o.Expiry = v }},
		{"volatility", func(_ *Option, m *Market, v float64) { m.Volatility = v }},
		{"rate", func(_ *Option, m *Market, v float64) { m.Rate = v }},
	}
	cfg := &Config{BinomialSteps: 16, GridPoints: 64, TimeSteps: 16, MCPaths: 1024}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			o, m := Option{Type: Put, Spot: 100, Strike: 100, Expiry: 1}, tMkt
			f.set(&o, &m, v)
			for _, method := range []Method{ClosedForm, BinomialTree, TrinomialTree, FiniteDifference, MonteCarlo} {
				if res, err := PriceCtx(context.Background(), o, m, method, cfg); !errors.Is(err, ErrInvalidOption) {
					t.Errorf("PriceCtx %v %s=%v: %+v, %v", method, f.name, v, res, err)
				}
				if res, err := PriceRequestCtx(context.Background(), []Option{tOpt, o}, m, method, cfg); !errors.Is(err, ErrInvalidOption) {
					t.Errorf("PriceRequestCtx %v %s=%v: %+v, %v", method, f.name, v, res, err)
				}
			}
			if g, err := ComputeGreeks(o, m); !errors.Is(err, ErrInvalidOption) {
				t.Errorf("ComputeGreeks %s=%v: %+v, %v", f.name, v, g, err)
			}
		}
	}
}

func TestStrings(t *testing.T) {
	if Call.String() != "call" || Put.String() != "put" {
		t.Fatal("OptionType strings")
	}
	if European.String() != "european" || American.String() != "american" {
		t.Fatal("ExerciseStyle strings")
	}
	if ClosedForm.String() != "closed-form" || MonteCarlo.String() != "monte-carlo" {
		t.Fatal("Method strings")
	}
	if LevelBasic.String() != "basic" || LevelAdvanced.String() != "advanced" {
		t.Fatal("OptLevel strings")
	}
}

func TestComputeGreeks(t *testing.T) {
	g, err := ComputeGreeks(tOpt, tMkt)
	if err != nil {
		t.Fatal(err)
	}
	if g.DeltaCall <= 0 || g.DeltaCall >= 1 || g.Gamma <= 0 || g.Vega <= 0 {
		t.Fatalf("implausible greeks: %+v", g)
	}
	if _, err := ComputeGreeks(Option{}, tMkt); err == nil {
		t.Fatal("invalid option accepted")
	}
}

func TestPriceBatchLevelsAgree(t *testing.T) {
	const n = 1000
	b := NewBatch(n)
	for i := 0; i < n; i++ {
		b.Spots[i] = 50 + float64(i%100)
		b.Strikes[i] = 60 + float64(i%80)
		b.Expiries[i] = 0.25 + float64(i%10)/5
	}
	if err := PriceBatch(b, tMkt, LevelBasic); err != nil {
		t.Fatal(err)
	}
	wantCalls := append([]float64(nil), b.Calls...)
	wantPuts := append([]float64(nil), b.Puts...)
	for _, level := range []OptLevel{LevelIntermediate, LevelAdvanced} {
		if err := PriceBatch(b, tMkt, level); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(b.Calls[i]-wantCalls[i]) > 1e-9 || math.Abs(b.Puts[i]-wantPuts[i]) > 1e-9 {
				t.Fatalf("%v option %d differs from basic", level, i)
			}
		}
	}
	if err := PriceBatch(b, tMkt, OptLevel(9)); err == nil {
		t.Fatal("unknown level accepted")
	}
	if err := PriceBatch(NewBatch(0), tMkt, LevelBasic); err != nil {
		t.Fatal("empty batch errored")
	}
}

func TestBatchAgainstScalar(t *testing.T) {
	b := NewBatch(3)
	copy(b.Spots, []float64{100, 90, 110})
	copy(b.Strikes, []float64{100, 100, 100})
	copy(b.Expiries, []float64{1, 0.5, 2})
	if err := PriceBatch(b, tMkt, LevelAdvanced); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		want, _ := PriceCtx(context.Background(), Option{Type: Call, Style: European,
			Spot: b.Spots[i], Strike: b.Strikes[i], Expiry: b.Expiries[i]}, tMkt, ClosedForm, nil)
		if math.Abs(b.Calls[i]-want.Price) > 1e-9 {
			t.Fatalf("batch call %d = %g, want %g", i, b.Calls[i], want.Price)
		}
	}
}

func TestProfileBatch(t *testing.T) {
	b := NewBatch(64)
	for i := range b.Spots {
		b.Spots[i], b.Strikes[i], b.Expiries[i] = 100, 100, 1
	}
	mix, err := ProfileBatch(b, tMkt, LevelIntermediate, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mix.Items != 64 || mix.Total() == 0 {
		t.Fatalf("profile empty: %v", mix)
	}
	if _, err := ProfileBatch(b, tMkt, OptLevel(9), 8); err == nil {
		t.Fatal("unknown level accepted")
	}
}

func TestPathSimulator(t *testing.T) {
	ps, err := NewPathSimulator(64, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	paths := ps.Simulate(2000, 100, tMkt)
	if len(paths) != 2000 || len(paths[0]) != 65 {
		t.Fatalf("shape %dx%d", len(paths), len(paths[0]))
	}
	// Martingale check: discounted terminal mean ~ spot.
	var mean float64
	for _, p := range paths {
		if p[0] != 100 {
			t.Fatal("path does not start at spot")
		}
		mean += p[64]
	}
	mean /= float64(len(paths))
	want := 100 * math.Exp(tMkt.Rate*1)
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("terminal mean %g, want %g", mean, want)
	}
}

func TestPathSimulatorValidation(t *testing.T) {
	for _, steps := range []int{0, 1, 3, 48} {
		if _, err := NewPathSimulator(steps, 1, 1); err == nil {
			t.Fatalf("steps=%d accepted", steps)
		}
	}
}

func TestMonteCarloPutParity(t *testing.T) {
	put := tOpt
	put.Type = Put
	call, _ := PriceCtx(context.Background(), tOpt, tMkt, MonteCarlo, &Config{MCPaths: 1 << 15, Seed: 9})
	putRes, _ := PriceCtx(context.Background(), put, tMkt, MonteCarlo, &Config{MCPaths: 1 << 15, Seed: 9})
	want := 100 - 100*math.Exp(-tMkt.Rate)
	if math.Abs((call.Price-putRes.Price)-want) > 1e-9 {
		t.Fatalf("MC parity violated: %g vs %g", call.Price-putRes.Price, want)
	}
}

func TestMachinesInfo(t *testing.T) {
	ms := Machines()
	if len(ms) != 2 || ms[0].Name != "SNB-EP" || ms[1].Name != "KNC" {
		t.Fatalf("Machines() = %v", ms)
	}
	if ms[0].Cores != 16 || ms[1].Cores != 60 {
		t.Fatal("core counts wrong")
	}
	if ms[1].PeakDPGFLOPs != 1063 || ms[0].StreamBW != 76 {
		t.Fatal("Table I values wrong")
	}
}

func TestPredictThroughput(t *testing.T) {
	b := NewBatch(8192)
	for i := range b.Spots {
		b.Spots[i], b.Strikes[i], b.Expiries[i] = 100, 100, 1
	}
	mix, err := ProfileBatch(b, tMkt, LevelIntermediate, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PredictThroughput(mix, "KNC")
	if err != nil {
		t.Fatal(err)
	}
	if p.ItemsPerSec < 1e8 || p.ItemsPerSec > 1e10 {
		t.Fatalf("KNC prediction %g options/s implausible", p.ItemsPerSec)
	}
	if p.Bound != "compute" && p.Bound != "bandwidth" {
		t.Fatalf("bound = %q", p.Bound)
	}
	if _, err := PredictThroughput(mix, "GPU"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestRooflineChart(t *testing.T) {
	chart, err := Roofline("SNB-EP", map[string][2]float64{
		"black-scholes": {5, 120},
		"binomial":      {200, 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SNB-EP roofline", "A: ", "B: ", "peak 346"} {
		if !strings.Contains(chart, want) {
			t.Fatalf("chart missing %q:\n%s", want, chart)
		}
	}
	// The roof line itself must be drawn.
	if strings.Count(chart, "-") < 20 {
		t.Fatal("roof not drawn")
	}
	if _, err := Roofline("nope", nil); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestTrinomialAsMethod(t *testing.T) {
	res, err := PriceCtx(context.Background(), tOpt, tMkt, TrinomialTree, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := PriceCtx(context.Background(), tOpt, tMkt, ClosedForm, nil)
	if math.Abs(res.Price-want.Price) > 0.05 {
		t.Fatalf("trinomial method %g vs closed form %g", res.Price, want.Price)
	}
	if res.Method != TrinomialTree || TrinomialTree.String() != "trinomial-tree" {
		t.Fatal("method labelling wrong")
	}
	// Every type/style combination agrees with the binomial lattice.
	for _, tc := range []struct {
		name string
		o    Option
	}{
		{"european-call", Option{Type: Call, Style: European, Spot: 100, Strike: 100, Expiry: 1}},
		{"european-put", Option{Type: Put, Style: European, Spot: 100, Strike: 105, Expiry: 0.5}},
		{"american-put", Option{Type: Put, Style: American, Spot: 100, Strike: 110, Expiry: 1}},
		{"american-call", Option{Type: Call, Style: American, Spot: 100, Strike: 95, Expiry: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.o
			bin, err := PriceCtx(context.Background(), o, tMkt, BinomialTree, &Config{BinomialSteps: 2048})
			if err != nil {
				t.Fatal(err)
			}
			tri, err := PriceCtx(context.Background(), o, tMkt, TrinomialTree, &Config{BinomialSteps: 1024})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(tri.Price-bin.Price) > 0.02*math.Max(1, bin.Price) {
				t.Fatalf("%v %v: trinomial %g vs binomial %g", o.Style, o.Type, tri.Price, bin.Price)
			}
		})
	}
	t.Run("invalid-option", func(t *testing.T) {
		if _, err := PriceCtx(context.Background(), Option{}, tMkt, TrinomialTree, nil); !errors.Is(err, ErrInvalidOption) {
			t.Fatal("invalid option accepted")
		}
	})
}
