package bench

import (
	"context"

	"finbench"
)

// heavy: the served heavy kernels, one finbench.PriceRequestCtx call per
// invocation at default sizes — what serve.priceHeavy runs for one
// request. Every row gates allocs/op: a heavy request's allocations are
// a per-request budget like the servepath rows' (trees 2 or 5, Crank-
// Nicolson 3 whatever the option count, Monte Carlo 3 warm and 8 cold).

func init() {
	register(&Experiment{
		ID:          "heavy",
		Title:       "Served heavy kernels (one request per invocation)",
		Units:       "options/s",
		Description: "finbench.PriceRequestCtx at default sizes on the request shapes heavy_mix sends: American puts through the binomial and trinomial trees and Crank-Nicolson, and European calls through Monte Carlo warm and cold on the normal store. Rows gate allocs/op in benchreg snapshots.",
		Measure:     measureHeavy,
	})
}

// measureHeavy builds the heavy rows. Each lattice method prices one
// American put per request (x1) and the four heavy_mix-shaped puts
// (x4 and, for Crank-Nicolson, mix-x4); crank-nicolson-x4 prices four
// near-the-money puts. The Monte Carlo x1 and x4 rows repeat one seed,
// as heavy_mix does, so after their first request they read the normals
// from the store; the x4-cold row draws a seed no earlier request used,
// so every request generates its normals (once for its four options) and
// stores them. Scale does not apply: the rows time the served sizes.
func measureHeavy(float64) (*Result, error) {
	mkt := finbench.Market{Rate: 0.02, Volatility: 0.3}
	put := finbench.Option{Type: finbench.Put, Style: finbench.American, Spot: 100, Strike: 110, Expiry: 1.5}
	puts := []finbench.Option{
		put,
		{Type: finbench.Put, Style: finbench.American, Spot: 90, Strike: 100, Expiry: 0.5},
		{Type: finbench.Put, Style: finbench.American, Spot: 110, Strike: 100, Expiry: 2},
		{Type: finbench.Put, Style: finbench.American, Spot: 100, Strike: 120, Expiry: 1},
	}
	// Four contracts from heavy_mix's ranges (S, K in [50, 150], T in
	// [0.1, 3.1]): deep in the money, deep out of it, near the money, and
	// out of it at a long expiry, so the rows weigh the lattices' live
	// windows as the mix does.
	mixPuts := []finbench.Option{
		{Type: finbench.Put, Style: finbench.American, Spot: 62, Strike: 138, Expiry: 2.4},
		{Type: finbench.Put, Style: finbench.American, Spot: 141, Strike: 57, Expiry: 0.7},
		{Type: finbench.Put, Style: finbench.American, Spot: 95, Strike: 104, Expiry: 1.2},
		{Type: finbench.Put, Style: finbench.American, Spot: 118, Strike: 92, Expiry: 2.9},
	}
	calls := []finbench.Option{
		{Spot: 100, Strike: 100, Expiry: 1}, {Spot: 90, Strike: 100, Expiry: 0.5},
		{Spot: 110, Strike: 100, Expiry: 2}, {Spot: 100, Strike: 120, Expiry: 1.5},
	}
	// cfg is nil (default Config) on every row but the cold one, whose
	// seed moves on before each request.
	row := func(label string, method finbench.Method, opts []finbench.Option, cfg *finbench.Config) Row {
		return Row{Label: label, Items: len(opts), GateAllocs: true, Prov: None, Run: func() {
			if cfg != nil {
				cfg.Seed++
			}
			if _, err := finbench.PriceRequestCtx(context.Background(), opts, mkt, method, cfg); err != nil {
				panic(err)
			}
		}}
	}
	return &Result{ID: "heavy", Title: "Served heavy kernels (per request, default sizes)", Units: "options/s", Rows: []Row{
		row("binomial-amer-put", finbench.BinomialTree, []finbench.Option{put}, nil),
		row("binomial-amer-put-x4", finbench.BinomialTree, mixPuts, nil),
		row("trinomial-amer-put", finbench.TrinomialTree, []finbench.Option{put}, nil),
		row("trinomial-amer-put-x4", finbench.TrinomialTree, mixPuts, nil),
		row("crank-nicolson", finbench.FiniteDifference, []finbench.Option{put}, nil),
		row("crank-nicolson-x4", finbench.FiniteDifference, puts, nil),
		row("crank-nicolson-mix-x4", finbench.FiniteDifference, mixPuts, nil),
		row("monte-carlo-x1", finbench.MonteCarlo, calls[:1], nil),
		row("monte-carlo-x4", finbench.MonteCarlo, calls, nil),
		row("monte-carlo-x4-cold", finbench.MonteCarlo, calls, &finbench.Config{Seed: 1 << 40}), // above every seed another row or test uses
	}}, nil
}
