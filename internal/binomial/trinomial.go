package binomial

import (
	"context"

	"finbench/internal/mathx"
	"finbench/internal/workload"
)

// Trinomial lattice (Boyle): the other lattice method of the paper's
// taxonomy (Fig. 1, "lattice methods (binomial/trinomial trees)"). Each
// node branches up/middle/down with u = e^{sigma sqrt(2 dt)}, d = 1/u,
// m = 1; the extra degree of freedom gives smoother convergence than the
// binomial tree at equal step counts, which the tests verify.

// TriParams holds the discretized trinomial dynamics.
type TriParams struct {
	Steps      int
	U          float64 // up factor per step
	Pu, Pm, Pd float64 // branch probabilities
	Df         float64 // per-step discount
	logU       float64
}

// NewTriParams derives the Boyle trinomial parameters.
func NewTriParams(t float64, steps int, mkt workload.MarketParams) TriParams {
	dt := t / float64(steps)
	su := mathx.Exp(mkt.Sigma * mathx.Sqrt(dt/2))
	sd := 1 / su
	er := mathx.Exp(mkt.R * dt / 2)
	pu := (er - sd) / (su - sd)
	pu *= pu
	pd := (su - er) / (su - sd)
	pd *= pd
	logU := mkt.Sigma * mathx.Sqrt(2*dt)
	return TriParams{
		Steps: steps,
		U:     mathx.Exp(logU),
		Pu:    pu,
		Pm:    1 - pu - pd,
		Pd:    pd,
		Df:    mathx.Exp(-mkt.R * dt),
		logU:  logU,
	}
}

// PriceTrinomialCtx prices a European call on the trinomial lattice, with
// cancellation checked every ctxLevelBlock lattice levels.
func PriceTrinomialCtx(cx context.Context, s, x, t float64, steps int, mkt workload.MarketParams) (float64, error) {
	if err := cx.Err(); err != nil {
		return 0, err
	}
	done := cx.Done()
	p := NewTriParams(t, steps, mkt)
	// 2*steps+1 terminal nodes; node j has price S e^{(j-steps) logU}.
	n := 2*steps + 1
	val := make([]float64, n)
	for j := 0; j < n; j++ {
		v := s*mathx.Exp(float64(j-steps)*p.logU) - x
		if v < 0 {
			v = 0
		}
		val[j] = v
	}
	for level := steps - 1; level >= 0; level-- {
		if (steps-1-level)%ctxLevelBlock == 0 {
			select {
			case <-done: // nil, so never ready, when cx cannot be cancelled
				return 0, cx.Err()
			default:
			}
		}
		m := 2*level + 1
		for j := 0; j < m; j++ {
			val[j] = p.Df * (p.Pd*val[j] + p.Pm*val[j+1] + p.Pu*val[j+2])
		}
	}
	return val[0], nil
}

// PriceAmericanPutTrinomialCtx prices an American put on the same
// lattice with the early-exercise maximum at every node, with
// cancellation checked every ctxLevelBlock lattice levels.
func PriceAmericanPutTrinomialCtx(cx context.Context, s, x, t float64, steps int, mkt workload.MarketParams) (float64, error) {
	if err := cx.Err(); err != nil {
		return 0, err
	}
	done := cx.Done()
	p := NewTriParams(t, steps, mkt)
	// Exercise ladder: node j of level L sits at S e^{(j-L) logU}, so the
	// 2N+1 values x - S e^{k logU}, k in [-N, N] (entry k+N), cover every
	// node of the lattice and level L reads the contiguous run starting
	// at entry N-L. Each entry is the per-node expression, bit for bit.
	n := 2*steps + 1
	buf := make([]float64, 2*n)
	lad, val := buf[:n], buf[n:]
	for j := range lad {
		lad[j] = x - float64(s*mathx.Exp(float64(j-steps)*p.logU))
	}
	for j, v := range lad {
		if v < 0 {
			v = 0
		}
		val[j] = v
	}
	for level := steps - 1; level >= 0; level-- {
		if (steps-1-level)%ctxLevelBlock == 0 {
			select {
			case <-done:
				return 0, cx.Err()
			default:
			}
		}
		m := 2*level + 1
		ex := lad[steps-level:][:m]
		in := val[:m+2]
		for j, e := range ex {
			cont := p.Df * (float64(p.Pd*in[j]) + float64(p.Pm*in[j+1]) + float64(p.Pu*in[j+2]))
			if e > cont {
				cont = e
			}
			val[j] = cont
		}
	}
	return val[0], nil
}
