package scenario

import (
	"context"
	"math"

	"finbench"
	"finbench/internal/mathx"
	"finbench/internal/rng"
)

// Evaluation: cells map to finbench.GridRow scenarios and run through
// the pooled SOA batch path (finbench.PriceBatchGridCtx), one row per
// cell with cancellation checked per row. buildRows lays grid cells out
// spot-major, then vol, then rate, and gives every cell of one shock the
// same float bits, so the grid kernel computes each shock's Log, Sqrt or
// Exp column once and reuses it for the other rows of the range; the
// generators' rows carry fresh scales and vols and find no reuse.
// Per-cell P&L is the Kahan-compensated sum over positions in portfolio
// order. The generators take e^x from mathx.Exp, not math.Exp, whose
// amd64 body switches on the CPU's fused multiply-add and so would give
// one request different scenarios on different hosts.

// minVol floors a simulated volatility so a near-zero Heston variance
// still prices.
const minVol = 1e-4

// hestonSteps is the fixed full-truncation Euler step count of the
// Heston generator (fixed so the scenario set is independent of any
// tuning knob a deployment might vary).
const hestonSteps = 16

// EvaluateCells prices the portfolio across the global cells
// [start, start+count) and returns the base (unshocked) portfolio value
// plus the per-cell P&L in cell order. The request must already be
// validated. ctx cancels between grid rows.
func EvaluateCells(ctx context.Context, req *Request, mkt finbench.Market, start, count int) (base float64, pnl []float64, err error) {
	n := len(req.Portfolio)
	b := finbench.NewBatch(n)
	quantities := make([]float64, n)
	puts := make([]bool, n)
	for i := range req.Portfolio {
		p := &req.Portfolio[i]
		b.Spots[i], b.Strikes[i], b.Expiries[i] = p.Spot, p.Strike, p.Expiry
		quantities[i] = p.Qty()
		puts[i] = p.Type == "put"
	}

	// Base valuation: one unshocked row. Per-position base prices seed
	// every cell's P&L sum.
	basePrices := make([]float64, n)
	baseRow := []finbench.GridRow{{Market: mkt, Scale: 1}}
	err = finbench.PriceBatchGridCtx(ctx, b, baseRow, func(_ int, calls, putsOut []float64) error {
		var sum Sum
		for i := 0; i < n; i++ {
			basePrices[i] = calls[i]
			if puts[i] {
				basePrices[i] = putsOut[i]
			}
			sum.Add(quantities[i] * basePrices[i])
		}
		base = sum.Value()
		return nil
	})
	if err != nil {
		return 0, nil, err
	}

	rows, err := buildRows(req, mkt, start, count)
	if err != nil {
		return 0, nil, err
	}
	pnl = make([]float64, count)
	err = finbench.PriceBatchGridCtx(ctx, b, rows, func(r int, calls, putsOut []float64) error {
		var sum Sum
		for i := 0; i < n; i++ {
			price := calls[i]
			if puts[i] {
				price = putsOut[i]
			}
			sum.Add(quantities[i] * (price - basePrices[i]))
		}
		pnl[r] = sum.Value()
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return base, pnl, nil
}

// buildRows materializes the scenario rows for the global cells
// [start, start+count): shocked markets for grid cells, simulated market
// states for generator cells. Generator scenarios are random-access —
// scenario k draws from DeriveSeed(seed, k) — so a sub-range costs only
// its own cells.
func buildRows(req *Request, mkt finbench.Market, start, count int) ([]finbench.GridRow, error) {
	rows := make([]finbench.GridRow, count)
	spots, vols, rates := req.Grid.spotShocks(), req.Grid.volShocks(), req.Grid.rateShifts()
	gridCells := req.NumGridCells()
	for r := 0; r < count; r++ {
		idx := start + r
		if idx < gridCells {
			ri := idx % len(rates)
			vi := (idx / len(rates)) % len(vols)
			si := idx / (len(rates) * len(vols))
			rows[r] = finbench.GridRow{
				Market: finbench.Market{
					Rate:       mkt.Rate + rates[ri],
					Volatility: mkt.Volatility + vols[vi],
				},
				Scale: 1 + spots[si],
			}
			continue
		}
		gen, k := req.generatorCell(idx - gridCells)
		rows[r] = simulateCell(gen, k, mkt, len(req.Portfolio))
	}
	return rows, nil
}

// generatorCell resolves a generator-space offset to its generator and
// the scenario index within it.
func (r *Request) generatorCell(off int) (*Generator, int) {
	for i := range r.Generators {
		g := &r.Generators[i]
		if off < g.Scenarios {
			return g, off
		}
		off -= g.Scenarios
	}
	// Unreachable after validation; a zero generator would panic later
	// and that is the right failure for a broken invariant.
	return nil, off
}

// simulateCell draws scenario k of gen: a market state at the horizon,
// applied as an instantaneous shock (expiries do not decay). The stream
// is derived from (seed, k) alone, so any process computes identical
// rows for identical cells.
func simulateCell(gen *Generator, k int, mkt finbench.Market, positions int) finbench.GridRow {
	stream := rng.NewStream(0, rng.DeriveSeed(gen.seed(), uint64(k)))
	switch gen.Model {
	case ModelHeston:
		return hestonCell(gen, stream, mkt)
	case ModelJump:
		return jumpCell(gen, stream, mkt)
	default: // ModelBasket, by validation
		return basketCell(gen, stream, mkt, positions)
	}
}

// hestonCell runs one full-truncation Euler path of the Heston model to
// the horizon and returns the joint (spot scale, new vol) state.
func hestonCell(gen *Generator, stream *rng.Stream, mkt finbench.Market) finbench.GridRow {
	v0 := gen.V0
	if v0 == 0 { // finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		v0 = mkt.Volatility * mkt.Volatility
	}
	kappa := gen.Kappa
	if kappa == 0 { // finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		kappa = 1.5
	}
	thetaV := gen.ThetaV
	if thetaV == 0 { // finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		thetaV = v0
	}
	sigmaV := gen.SigmaV
	if sigmaV == 0 { // finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		sigmaV = 0.5
	}
	rho := gen.Rho
	if rho == 0 { // finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		rho = -0.7
	}
	h := gen.horizon()
	dt := h / hestonSteps
	sqDt := math.Sqrt(dt)
	rhoC := math.Sqrt(1 - rho*rho)
	var z [2 * hestonSteps]float64
	stream.NormalICDF(z[:])
	logS := 0.0
	v := v0
	for s := 0; s < hestonSteps; s++ {
		vp := v
		if vp < 0 {
			vp = 0
		}
		sqV := math.Sqrt(vp)
		z1 := z[2*s]
		z2 := rho*z1 + rhoC*z[2*s+1]
		logS += (mkt.Rate-vp/2)*dt + sqV*sqDt*z1
		v += kappa*(thetaV-vp)*dt + sigmaV*sqV*sqDt*z2
	}
	if v < 0 {
		v = 0
	}
	vol := math.Sqrt(v)
	if vol < minVol {
		vol = minVol
	}
	return finbench.GridRow{
		Market: finbench.Market{Rate: mkt.Rate, Volatility: vol},
		Scale:  mathx.Exp(logS),
	}
}

// jumpCell draws one Merton jump-diffusion terminal state: GBM with
// compensated drift plus a Poisson number of lognormal jumps.
func jumpCell(gen *Generator, stream *rng.Stream, mkt finbench.Market) finbench.GridRow {
	lambda := gen.Lambda
	if lambda == 0 { // finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		lambda = 0.3
	}
	muJ := gen.MuJ
	if muJ == 0 { // finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		muJ = -0.1
	}
	sigmaJ := gen.SigmaJ
	if sigmaJ == 0 { // finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		sigmaJ = 0.15
	}
	h := gen.horizon()
	sigma := mkt.Volatility
	kbar := mathx.Exp(muJ+sigmaJ*sigmaJ/2) - 1

	var z [1]float64
	stream.NormalICDF(z[:])
	logS := (mkt.Rate-lambda*kbar-sigma*sigma/2)*h + sigma*math.Sqrt(h)*z[0]

	// Poisson(lambda*h) by Knuth's product-of-uniforms inversion; the
	// draw count varies per scenario, which is fine — the stream is this
	// cell's alone.
	limit := mathx.Exp(-lambda * h)
	var u [1]float64
	for p := 1.0; ; {
		stream.Uniform(u[:])
		p *= u[0]
		if p <= limit {
			break
		}
		stream.NormalICDF(z[:])
		logS += muJ + sigmaJ*z[0]
	}
	return finbench.GridRow{Market: mkt, Scale: mathx.Exp(logS)}
}

// basketCell draws correlated GBM terminal states for Assets factors
// (one common driver plus idiosyncratic noise — the equicorrelation
// Cholesky) and moves position i with factor i mod Assets.
func basketCell(gen *Generator, stream *rng.Stream, mkt finbench.Market, positions int) finbench.GridRow {
	assets := gen.Assets
	if assets == 0 {
		assets = 4
	}
	corr := gen.Corr
	if corr == 0 { // finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		corr = 0.5
	}
	h := gen.horizon()
	sigma := mkt.Volatility
	drift := (mkt.Rate - sigma*sigma/2) * h
	volH := sigma * math.Sqrt(h)
	sqC := math.Sqrt(corr)
	sqI := math.Sqrt(1 - corr)

	z := make([]float64, assets+1)
	stream.NormalICDF(z)
	factors := make([]float64, assets)
	for j := 0; j < assets; j++ {
		zj := sqC*z[0] + sqI*z[j+1]
		factors[j] = mathx.Exp(drift + volH*zj)
	}
	scales := make([]float64, positions)
	for i := range scales {
		scales[i] = factors[i%assets]
	}
	return finbench.GridRow{Market: mkt, Scales: scales}
}

// Finalize assembles the Response for cells [start, start+len(pnl)).
// When the range covers the whole cell space it attaches the ladder
// reduced over the surface; a sub-range response carries only its
// segment. Both one process answering everything and the router merging
// sub-responses funnel through this same function, which is what makes
// the two answers byte-identical.
func Finalize(req *Request, base float64, start int, pnl []float64) *Response {
	resp := &Response{
		BaseValue: base,
		Start:     start,
		Cells:     len(pnl),
		GridCells: req.NumGridCells(),
		GenCells:  req.NumGenCells(),
		PnL:       pnl,
		Engine:    "grid-advanced",
	}
	if start == 0 && len(pnl) == req.NumCells() {
		resp.Ladder = Reduce(req.Levels(), pnl)
	}
	return resp
}
