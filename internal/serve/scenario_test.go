package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"finbench/internal/scenario"
)

func scenarioTestRequest() *scenario.Request {
	return &scenario.Request{
		Portfolio: []scenario.Position{
			{Type: "call", Spot: 100, Strike: 105, Expiry: 0.5, Quantity: 10},
			{Type: "put", Spot: 90, Strike: 100, Expiry: 1.25, Quantity: -4},
			{Spot: 120, Strike: 100, Expiry: 2},
		},
		Grid: scenario.Grid{
			SpotShocks: []float64{-0.2, 0, 0.2},
			VolShocks:  []float64{-0.05, 0.05},
			RateShifts: []float64{0, 0.01},
		},
		Generators: []scenario.Generator{
			{Model: scenario.ModelHeston, Scenarios: 5, Seed: 3},
			{Model: scenario.ModelJump, Scenarios: 4, Seed: 4},
			{Model: scenario.ModelBasket, Scenarios: 4, Seed: 5, Assets: 2, Corr: 0.7},
		},
	}
}

// TestScenarioBitMatchesLibrary: the handler's 200 body is byte-identical
// to evaluating + finalizing the same request directly against the
// library — the invariant the router's merge path builds on.
func TestScenarioBitMatchesLibrary(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := scenarioTestRequest()
	resp, body := postJSON(t, ts.URL+"/scenario", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	base, pnl, err := scenario.EvaluateCells(context.Background(), req, s.cfg.Market, 0, req.NumCells())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(scenario.Finalize(req, base, 0, pnl)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("handler body differs from library finalize\n got: %s\nwant: %s", body, want.Bytes())
	}
	var out scenario.Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Ladder == nil || len(out.Ladder.VaR) != 2 {
		t.Fatalf("full response missing default two-level ladder: %s", body)
	}
	if out.Engine != "grid-advanced" {
		t.Errorf("engine = %q, want grid-advanced", out.Engine)
	}
}

// TestScenarioSubRange: a cells sub-range answers the segment only (no
// ladder), matching the whole surface's bits at those offsets.
func TestScenarioSubRange(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := scenarioTestRequest()
	_, whole, err := scenario.EvaluateCells(context.Background(), req, s.cfg.Market, 0, req.NumCells())
	if err != nil {
		t.Fatal(err)
	}
	sub := *req
	sub.Cells = &scenario.Cells{Start: 5, Count: 7}
	resp, body := postJSON(t, ts.URL+"/scenario", &sub)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out scenario.Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Ladder != nil {
		t.Error("sub-range response carries a ladder")
	}
	if out.Start != 5 || out.Cells != 7 || len(out.PnL) != 7 {
		t.Fatalf("sub-range shape: start=%d cells=%d len=%d", out.Start, out.Cells, len(out.PnL))
	}
	for i, x := range out.PnL {
		if x != whole[5+i] {
			t.Fatalf("cell %d: sub-range %v != whole %v", 5+i, x, whole[5+i])
		}
	}
}

// TestScenarioRejects: malformed and over-limit requests answer 400.
func TestScenarioRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
	}{
		{"empty portfolio", &scenario.Request{}},
		{"over cell limit", &scenario.Request{
			Portfolio: []scenario.Position{{Spot: 100, Strike: 100, Expiry: 1}},
			Grid:      scenario.Grid{SpotShocks: make([]float64, maxScenarioCells+1)},
		}},
		{"negative deadline", &scenario.Request{
			Portfolio:  []scenario.Position{{Spot: 100, Strike: 100, Expiry: 1}},
			DeadlineMS: -1,
		}},
		{"garbage", json.RawMessage(`{"portfolio": 3}`)},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/scenario", tc.body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}
}

// TestScenarioStatsz: /statsz reports scenario request and cell counters.
func TestScenarioStatsz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := scenarioTestRequest()
	if resp, body := postJSON(t, ts.URL+"/scenario", req); resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	snap := s.statszSnapshot()
	if snap.Requests["scenario"] != 1 || snap.Scenario["requests"] != 1 {
		t.Errorf("scenario request counters = %d/%d, want 1/1",
			snap.Requests["scenario"], snap.Scenario["requests"])
	}
	if want := uint64(req.NumCells()); snap.Scenario["cells"] != want {
		t.Errorf("scenario cells = %d, want %d", snap.Scenario["cells"], want)
	}
	if snap.LatencyUS["scenario"].Count != 1 {
		t.Errorf("scenario latency count = %d, want 1", snap.LatencyUS["scenario"].Count)
	}
}

// TestScenarioDraining: a draining server sheds /scenario with 503.
func TestScenarioDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.StartDrain()
	resp, _ := postJSON(t, ts.URL+"/scenario", scenarioTestRequest())
	if resp.StatusCode != 503 {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
}

func TestScenarioCapsBasketAssets(t *testing.T) {
	req := scenarioTestRequest()
	req.Generators[2].Assets = maxBasketAssets + 1
	expectCap400(t, "/scenario", req, maxBasketAssets)
}
