package blackscholes

import (
	"finbench/internal/mathx"
	"finbench/internal/workload"
)

// Greeks are the Black-Scholes sensitivities of one option. The paper's
// benchmark domain (STAC, Premia) motivates pricing together with risk;
// greeks are the natural extension of the closed-form kernel.
type Greeks struct {
	// DeltaCall and DeltaPut are dV/dS.
	DeltaCall, DeltaPut float64
	// Gamma is d2V/dS2 (identical for call and put).
	Gamma float64
	// Vega is dV/dsigma per unit volatility (identical for call and put).
	Vega float64
	// ThetaCall and ThetaPut are dV/dt (calendar decay, per year).
	ThetaCall, ThetaPut float64
	// RhoCall and RhoPut are dV/dr.
	RhoCall, RhoPut float64
}

// ComputeGreeks returns the closed-form sensitivities.
func ComputeGreeks(s, x, t float64, mkt workload.MarketParams) Greeks {
	r, sig := mkt.R, mkt.Sigma
	sqt := mathx.Sqrt(t)
	d1 := (mathx.Log(s/x) + (r+sig*sig/2)*t) / (sig * sqt)
	d2 := d1 - sig*sqt
	nd1 := mathx.CND(d1)
	pd1 := mathx.PDF(d1)
	disc := mathx.Exp(-r * t)
	var g Greeks
	g.DeltaCall = nd1
	g.DeltaPut = nd1 - 1
	g.Gamma = pd1 / (s * sig * sqt)
	g.Vega = s * pd1 * sqt
	g.ThetaCall = -s*pd1*sig/(2*sqt) - r*x*disc*mathx.CND(d2)
	g.ThetaPut = -s*pd1*sig/(2*sqt) + r*x*disc*mathx.CND(-d2)
	g.RhoCall = x * t * disc * mathx.CND(d2)
	g.RhoPut = -x * t * disc * mathx.CND(-d2)
	return g
}
