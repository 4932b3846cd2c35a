package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"finbench"
	"finbench/internal/scenario"
	"finbench/internal/serve"
)

// scenario: throughput of the portfolio risk scenario engine — the grid
// evaluation over the pooled SOA batch path, and the full /scenario
// handler stack (decode, validate, admission, evaluate, Kahan reduce,
// encode). The handler row gates allocs/op like the other serve-path
// rows: a new per-request allocation on the scenario path multiplies by
// the request rate. Short mode shrinks the grid through scaleInt; the
// nightly full-mode snapshot (scale 1) runs the large grid.

func init() {
	register(&Experiment{
		ID:          "scenario",
		Title:       "Portfolio risk scenario engine",
		Units:       "cells/s",
		Description: "Shock-grid P&L surfaces with deterministic Kahan reductions: library-level grid evaluation and the full /scenario handler stack. The handler row gates allocs/op in benchreg snapshots.",
		Measure:     measureScenario,
	})
}

// scenarioBenchRequest builds the deterministic benchmark request:
// positions positions over a spots x vols x rates shock grid, no
// generators (grid throughput is the closed-form scaling story; the
// Monte Carlo generators are priced per-cell by the same row path).
func scenarioBenchRequest(positions, spots, vols, rates int) *scenario.Request {
	req := &scenario.Request{
		Portfolio: make([]scenario.Position, positions),
		Grid: scenario.Grid{
			SpotShocks: make([]float64, spots),
			VolShocks:  make([]float64, vols),
			RateShifts: make([]float64, rates),
		},
	}
	for i := range req.Portfolio {
		p := &req.Portfolio[i]
		p.Spot = 90 + float64(i%21)
		p.Strike = 80 + float64(i%41)
		p.Expiry = 0.25 + float64(i%8)*0.25
		p.Quantity = float64(1 + i%7)
		if i%2 == 1 {
			p.Type = "put"
		}
	}
	for i := range req.Grid.SpotShocks {
		req.Grid.SpotShocks[i] = -0.25 + 0.5*float64(i)/float64(max(spots-1, 1))
	}
	for i := range req.Grid.VolShocks {
		req.Grid.VolShocks[i] = -0.05 + 0.1*float64(i)/float64(max(vols-1, 1))
	}
	for i := range req.Grid.RateShifts {
		req.Grid.RateShifts[i] = -0.01 + 0.02*float64(i)/float64(max(rates-1, 1))
	}
	return req
}

func measureScenario(scale float64) (*Result, error) {
	positions := scaleInt(64, scale, 8)
	spots := scaleInt(15, scale, 5)
	vols := scaleInt(7, scale, 3)
	rates := scaleInt(5, scale, 2)
	req := scenarioBenchRequest(positions, spots, vols, rates)
	cells := req.NumCells()
	mkt := finbench.Market{Rate: 0.02, Volatility: 0.3}

	r := &Result{
		ID:    "scenario",
		Title: fmt.Sprintf("Portfolio risk scenario engine (%d positions, %dx%dx%d grid = %d cells)", positions, spots, vols, rates, cells),
		Units: "cells/s",
	}

	// Row 1: library-level grid evaluation + ladder reduction, the work a
	// replica does per partition.
	levels := req.Levels()
	r.Rows = append(r.Rows, hostRow("grid evaluate + Kahan reduce (library)", cells, func() {
		base, pnl, err := scenario.EvaluateCells(context.Background(), req, mkt, 0, cells)
		if err != nil {
			panic(err)
		}
		_ = base
		_ = scenario.Reduce(levels, pnl)
	}))

	// Row 2: the full /scenario handler stack, alloc-gated like the other
	// serve-path rows. Same reusable-request harness as servepath so the
	// gated count is the server's alone.
	// Not closed, as in servepath: the server runs no goroutine and goes
	// with the rows.
	h := serve.New(serve.Config{}).Handler()
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rb := &rewindBody{}
	rb.Reset(body)
	hreq := httptest.NewRequest(http.MethodPost, "/scenario", nil)
	hreq.Body = rb
	hreq.ContentLength = int64(len(body))
	hreq.Header.Set("Content-Type", "application/json")
	rec := &discardRecorder{header: make(http.Header)}
	call := func() {
		rec.reset()
		rb.rewind()
		h.ServeHTTP(rec, hreq)
	}
	call() // untimed probe: never gate the error path's allocation count
	if rec.code != http.StatusOK {
		return nil, fmt.Errorf("bench: /scenario returned status %d", rec.code)
	}
	row := hostRow("/scenario handler (in-process)", cells, call)
	row.GateAllocs = true
	row.Prov = None
	r.Rows = append(r.Rows, row)

	r.Notes = append(r.Notes,
		"cells/s counts scenario grid cells; each cell prices the whole portfolio through the pooled SOA batch path",
		"the handler row gates allocs/op: a new per-request allocation on the /scenario path fails the benchreg check",
		"short mode shrinks the grid via scaleInt; the nightly full-mode snapshot runs the large grid at scale 1")
	return r, nil
}
