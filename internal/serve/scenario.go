package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"finbench/internal/scenario"
	"finbench/internal/serve/wire"
)

// POST /scenario prices a portfolio across a scenario grid (spot shocks x
// vol shocks x rate shifts, plus Monte Carlo scenario generators) and
// reduces the P&L surface to a VaR/ES ladder with Kahan-compensated,
// deterministically ordered reductions. A request may carry a `cells`
// sub-range — that is how the shard router scatters one grid across
// replicas — in which case the response is the P&L segment without the
// ladder. The 200 body is a pure function of (request, market): no
// timing field, so a router merging sub-responses reproduces the
// single-process bytes exactly.

// maxBasketAssets caps a basket generator's factor count (16x the
// library default of 4): each scenario draws and holds one value per
// asset, so the cap bounds one request's memory like maxOptions does.
const maxBasketAssets = 64

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	buf, body, ok := s.front(w, r, &s.stats.scenarioRequests)
	if !ok {
		return
	}
	var req scenario.Request
	err := json.Unmarshal(body, &req)
	wire.PutBuffer(buf)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding scenario request: "+err.Error())
		return
	}
	if req.DeadlineMS < 0 {
		s.writeError(w, http.StatusBadRequest, "deadline_ms must be non-negative")
		return
	}
	lim := scenario.Limits{MaxPositions: maxOptions, MaxCells: maxScenarioCells}
	if err := req.Validate(s.cfg.Market.Volatility, lim); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	for i := range req.Generators {
		if g := &req.Generators[i]; g.Model == scenario.ModelBasket && g.Assets > maxBasketAssets {
			s.writeError(w, http.StatusBadRequest, "generator "+strconv.Itoa(i)+": basket assets too large: "+
				strconv.Itoa(g.Assets)+" > "+strconv.Itoa(maxBasketAssets))
			return
		}
	}

	// Admission cost: one unit per (cell, position) valuation, like one
	// unit per closed-form option on /price.
	rangeStart, cells := req.Range()
	dctx, units := s.admit(w, r, int64(cells)*int64(len(req.Portfolio)), req.DeadlineMS)
	if dctx == nil {
		return
	}
	defer s.leave(dctx, units)

	base, pnl, err := scenario.EvaluateCells(dctx, &req, s.cfg.Market, rangeStart, cells)
	if err != nil {
		s.writePricingError(w, err, "scenario deadline exceeded")
		return
	}
	s.stats.scenarioCells.Add(uint64(cells))
	s.stats.observeLatency("scenario", time.Since(start))
	s.writeJSON(w, http.StatusOK, scenario.Finalize(&req, base, rangeStart, pnl))
}
