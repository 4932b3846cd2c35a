package bench

import (
	"fmt"
	"math"

	"finbench/internal/binomial"
	"finbench/internal/blackscholes"
	"finbench/internal/layout"
	"finbench/internal/machine"
	"finbench/internal/montecarlo"
	"finbench/internal/perf"
	"finbench/internal/rng"
	"finbench/internal/workload"
)

// Ablation experiments: parameter sweeps isolating the design choices the
// paper's advanced optimizations rest on. These go beyond the paper's
// figures (no paper column) but use the same modelling machinery.

func init() {
	registerAblateTile()
	registerAblateRNG()
	registerAblateQMC()
	registerAblateWidth()
}

// ablate-tile: the binomial register-tile depth trades Call-array traffic
// (1/TS per lane-step) against register pressure; the paper picks the tile
// "such that the Tile array may be allocated in a processor's register
// file" (Sec. IV-B2).
func registerAblateTile() {
	register(&Experiment{
		ID:          "ablate-tile",
		Title:       "Binomial register-tile depth sweep",
		Units:       "options/s",
		Description: "Modelled throughput of the tiled binomial reduction for TS in {2..64} at N=1024; the paper's choice sits at the knee.",
		Model: func(scale float64) (*Result, error) {
			gen := workload.DefaultOptionGen
			gen.TMax = 3
			nopt := 8 * scaleInt(2, scale, 1)
			const steps = 1024
			r := &Result{ID: "ablate-tile", Title: "Binomial tile sweep (N=1024, unrolled)", Units: "options/s"}
			for _, tile := range []int{2, 4, 8, 16, 32, 64} {
				model := modelRow(func(m *machine.Machine, w int, c *perf.Counts) {
					binomial.Advanced(gen.GenerateAOS(nopt), steps, mkt, w, tile, true, c)
				})
				r.Rows = append(r.Rows, Row{
					Label: fmt.Sprintf("TS=%d", tile),
					Model: model,
					Prov:  None,
				})
			}
			r.Notes = append(r.Notes,
				"register files cap the realizable tile: 16 F64vec4 registers on SNB-EP, 32 F64vec8 on KNC; larger TS rows model cache-level tiling")
			return r, nil
		},
	})
}

// ablate-rng: the four normal transforms. The paper uses ICDF (branch-free,
// vectorizable); the ziggurat is the scalar-speed champion but relies on
// rejection branches that defeat SIMD.
func registerAblateRNG() {
	register(&Experiment{
		ID:          "ablate-rng",
		Title:       "Normal-transform method comparison",
		Units:       "normals/s",
		Description: "Host throughput of ICDF, Box-Muller, polar and ziggurat normal generation.",
		Model: func(scale float64) (*Result, error) {
			n := scaleInt(1000000, scale, 100000)
			r := &Result{ID: "ablate-rng", Title: "Normal transforms (modelled, ICDF only)", Units: "normals/s"}
			// Only ICDF has a calibrated vector cost (it is what the paper
			// measures); other methods are host-measured (measure mode).
			model := modelRow(func(m *machine.Machine, w int, c *perf.Counts) {
				s := rng.NewStream(0, 1)
				s.C = c
				buf := make([]float64, n)
				s.NormalICDF(buf)
				c.Items = uint64(n)
			})
			r.Rows = append(r.Rows, Row{Label: "icdf (vectorizable)", Model: model, Prov: None})
			r.Notes = append(r.Notes, "run with -mode measure for the four-method host comparison")
			return r, nil
		},
		Measure: func(scale float64) (*Result, error) {
			n := scaleInt(2000000, scale, 100000)
			buf := make([]float64, n)
			r := &Result{ID: "ablate-rng", Title: "Normal transforms (host)", Units: "normals/s"}
			for _, m := range []rng.Method{rng.ICDF, rng.BoxMuller, rng.BoxMuller2, rng.ZigguratMethod} {
				method := m
				s := rng.NewStream(0, 1)
				r.Rows = append(r.Rows, hostRow(method.String(), n, func() { s.Normal(buf, method) }))
			}
			return r, nil
		},
	})
}

// ablate-qmc: Sobol + Brownian-bridge quasi-Monte Carlo versus
// pseudo-random Monte Carlo — the error at matched path budgets for the
// path-dependent Asian payoff (the bridge's purpose in Glasserman, the
// paper's bridge reference).
func registerAblateQMC() {
	register(&Experiment{
		ID:          "ablate-qmc",
		Title:       "QMC vs MC convergence (Asian option)",
		Units:       "abs error",
		Description: "Pricing error of plain MC and bridge+Sobol QMC at matched path counts, against a 16x larger QMC reference.",
		Model: func(scale float64) (*Result, error) {
			asian := montecarlo.AsianOption{S: 100, X: 100, T: 1, Steps: 32}
			// Sobol points form a net only at power-of-two counts, so the
			// scale shrinks the budgets by whole powers of two.
			shift := int(math.Round(-math.Log2(math.Sqrt(scale))))
			budgets := []int{max(1<<9>>shift, 256), max(1<<11>>shift, 512), max(1<<13>>shift, 2048)}
			// The reference must be far more accurate than the best
			// estimate it judges: a Monte Carlo one would put its own
			// sampling error (~n^-1/2) under every QMC row. Independent
			// digital shifts (another seed) keep it off the rows' points.
			ref := montecarlo.AsianQMC(asian, 16*budgets[len(budgets)-1], 8, 99, mkt)
			r := &Result{ID: "ablate-qmc", Title: "Asian option: MC vs bridge+Sobol QMC", Units: "abs error", Cols: []string{"MC", "QMC"}}
			for _, nn := range budgets {
				var mcErr float64
				const trials = 3
				for trial := uint64(0); trial < trials; trial++ {
					mc := montecarlo.AsianMC(asian, nn, 7+trial, mkt)
					mcErr += math.Abs(mc.Price - ref.Price)
				}
				mcErr /= trials
				qmc := montecarlo.AsianQMC(asian, nn, 3, 17, mkt)
				qmcErr := math.Abs(qmc.Price - ref.Price)
				r.Rows = append(r.Rows, Row{
					Label: fmt.Sprintf("n=%d", nn),
					Model: map[string]float64{"MC": mcErr, "QMC": qmcErr},
					Prov:  None,
				})
			}
			r.Notes = append(r.Notes,
				"columns here are MC and QMC error (not machines); QMC error should sit well below MC and shrink faster than n^-1/2")
			return r, nil
		},
	})
}

// ablate-width: modelled Black-Scholes throughput as a function of SIMD
// width, separating the lane-scaling benefit from the gather penalty that
// grows with width on the AOS layout.
func registerAblateWidth() {
	register(&Experiment{
		ID:          "ablate-width",
		Title:       "SIMD width sweep (Black-Scholes)",
		Units:       "options/s",
		Description: "Modelled KNC throughput at widths 1..8 for AOS (gathers grow with width) and SOA (pure lane scaling).",
		Model: func(scale float64) (*Result, error) {
			nopt := layout.PadTo(scaleInt(50000, scale, 4096), 8)
			gen := workload.DefaultOptionGen
			knc := machine.KNC()
			r := &Result{ID: "ablate-width", Title: "Width sweep on KNC", Units: "options/s", Cols: []string{"AOS", "SOA"}}
			for _, w := range []int{1, 2, 4, 8} {
				var cAOS, cSOA perf.Counts
				blackscholes.Basic(gen.GenerateAOS(nopt), mkt, w, &cAOS)
				blackscholes.Intermediate(gen.GenerateSOA(nopt), mkt, w, &cSOA)
				r.Rows = append(r.Rows, Row{
					Label: fmt.Sprintf("width=%d", w),
					Model: map[string]float64{"AOS": knc.Throughput(cAOS), "SOA": knc.Throughput(cSOA)},
					Prov:  None,
				})
			}
			r.Notes = append(r.Notes,
				"columns are AOS and SOA modelled on KNC; SOA scales with width while AOS saturates on gather cost")
			return r, nil
		},
	})
}
