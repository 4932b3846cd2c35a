package finbench

import (
	"errors"
	"math"
	"testing"
)

func TestPriceTrinomialMatchesBinomial(t *testing.T) {
	for _, o := range []Option{
		{Type: Call, Style: European, Spot: 100, Strike: 100, Expiry: 1},
		{Type: Put, Style: European, Spot: 100, Strike: 105, Expiry: 0.5},
		{Type: Put, Style: American, Spot: 100, Strike: 110, Expiry: 1},
		{Type: Call, Style: American, Spot: 100, Strike: 95, Expiry: 1},
	} {
		bin, err := Price(o, tMkt, BinomialTree, &Config{BinomialSteps: 2048})
		if err != nil {
			t.Fatal(err)
		}
		tri, err := PriceTrinomial(o, tMkt, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tri.Price-bin.Price) > 0.02*math.Max(1, bin.Price) {
			t.Fatalf("%v %v: trinomial %g vs binomial %g", o.Style, o.Type, tri.Price, bin.Price)
		}
	}
	if _, err := PriceTrinomial(Option{}, tMkt, 100); !errors.Is(err, ErrInvalidOption) {
		t.Fatal("invalid option accepted")
	}
}

func TestPriceAmericanPutLSMCAgainstLattice(t *testing.T) {
	o := Option{Type: Put, Style: American, Spot: 100, Strike: 110, Expiry: 1}
	lattice, _ := Price(o, tMkt, BinomialTree, nil)
	lsmc, err := PriceAmericanPutLSMC(o, tMkt, 80000, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lsmc.Price-lattice.Price) > 0.05*lattice.Price {
		t.Fatalf("LSMC %g vs lattice %g", lsmc.Price, lattice.Price)
	}
	call := o
	call.Type = Call
	if _, err := PriceAmericanPutLSMC(call, tMkt, 1000, 10, 1); !errors.Is(err, ErrMethodStyle) {
		t.Fatal("call accepted by put-only LSMC wrapper")
	}
}

func TestPriceAsianValidation(t *testing.T) {
	bad := AsianCall{Spot: 100, Strike: 100, Expiry: 1, Observations: 33}
	if _, err := PriceAsianMC(bad, tMkt, 100, 1); !errors.Is(err, ErrBadObservations) {
		t.Fatalf("33 observations: %v", err)
	}
	bad.Observations = 0
	if _, err := PriceAsianQMC(bad, tMkt, 100, 1); !errors.Is(err, ErrBadObservations) {
		t.Fatal("0 observations accepted")
	}
	bad = AsianCall{Spot: -1, Strike: 100, Expiry: 1, Observations: 32}
	if _, err := PriceAsianMC(bad, tMkt, 100, 1); !errors.Is(err, ErrInvalidOption) {
		t.Fatal("negative spot accepted")
	}
}

func TestPriceAsianMCvsQMC(t *testing.T) {
	a := AsianCall{Spot: 100, Strike: 100, Expiry: 1, Observations: 32}
	mc, err := PriceAsianMC(a, tMkt, 1<<15, 3)
	if err != nil {
		t.Fatal(err)
	}
	qmc, err := PriceAsianQMC(a, tMkt, 1<<12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.Price-qmc.Price) > 4*(mc.StdErr+qmc.StdErr)+0.01 {
		t.Fatalf("MC %g +- %g vs QMC %g +- %g", mc.Price, mc.StdErr, qmc.Price, qmc.StdErr)
	}
	// Asian below European (volatility of the average is lower).
	euro, _ := Price(Option{Type: Call, Style: European, Spot: 100, Strike: 100, Expiry: 1}, tMkt, ClosedForm, nil)
	if mc.Price >= euro.Price {
		t.Fatalf("Asian %g not below European %g", mc.Price, euro.Price)
	}
}

func TestPriceBasketMCPublic(t *testing.T) {
	b := BasketCall{
		Spots: []float64{100, 100}, Vols: []float64{0.2, 0.2},
		Weights: []float64{0.5, 0.5},
		Corr:    [][]float64{{1, 0.5}, {0.5, 1}},
		Strike:  100, Expiry: 1,
	}
	res, err := PriceBasketMC(b, tMkt, 1<<15, 9)
	if err != nil {
		t.Fatal(err)
	}
	single, _ := Price(Option{Type: Call, Style: European, Spot: 100, Strike: 100, Expiry: 1}, tMkt, ClosedForm, nil)
	if res.Price <= 0 || res.Price >= single.Price {
		t.Fatalf("basket %g out of (0, %g)", res.Price, single.Price)
	}
	if _, err := PriceBasketMC(BasketCall{}, tMkt, 10, 1); err == nil {
		t.Fatal("empty basket accepted")
	}
}

func TestAmericanGreeks(t *testing.T) {
	o := Option{Type: Put, Style: American, Spot: 100, Strike: 110, Expiry: 1}
	delta, gamma, err := AmericanGreeks(o, tMkt, 512)
	if err != nil {
		t.Fatal(err)
	}
	if delta >= 0 || delta < -1 {
		t.Fatalf("American put delta = %g", delta)
	}
	if gamma < -0.05 {
		t.Fatalf("American put gamma = %g", gamma)
	}
	// Deep ITM put: exercised immediately, delta ~ -1.
	deep := o
	deep.Spot = 60
	delta, _, err = AmericanGreeks(deep, tMkt, 512)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(delta-(-1)) > 0.02 {
		t.Fatalf("deep-ITM delta = %g, want ~-1", delta)
	}
	euro := o
	euro.Style = European
	if _, _, err := AmericanGreeks(euro, tMkt, 100); !errors.Is(err, ErrMethodStyle) {
		t.Fatal("European accepted by American bumping")
	}
}
