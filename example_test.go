package finbench_test

import (
	"context"
	"fmt"

	"finbench"
)

// ExamplePriceCtx prices one European call three ways and reads its
// closed-form delta. A nil config uses the paper's default experiment
// parameters: 1024 binomial steps, and the Fig. 8 Crank-Nicolson grid of
// 256 points by 1000 time steps, whose log-price domain is narrow enough
// to cost this contract about 0.11.
func ExamplePriceCtx() {
	ctx := context.Background()
	opt := finbench.Option{Type: finbench.Call, Style: finbench.European,
		Spot: 100, Strike: 105, Expiry: 0.5}
	mkt := finbench.Market{Rate: 0.02, Volatility: 0.30}

	for _, method := range []finbench.Method{finbench.ClosedForm, finbench.BinomialTree, finbench.FiniteDifference} {
		res, err := finbench.PriceCtx(ctx, opt, mkt, method, nil)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-16s %.4f\n", method, res.Price)
	}
	g, _ := finbench.ComputeGreeks(opt, mkt)
	fmt.Printf("delta            %.4f\n", g.DeltaCall)
	// Output:
	// closed-form      6.7795
	// binomial-tree    6.7810
	// crank-nicolson   6.8903
	// delta            0.4694
}
