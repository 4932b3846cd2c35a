package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"finbench"
	"finbench/internal/serve/pricecache"
	"finbench/internal/serve/wire"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodePrice(t *testing.T, data []byte) *PriceResponse {
	t.Helper()
	var out PriceResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding response: %v (%s)", err, data)
	}
	return &out
}

// verifyAgainstLibrary recomputes every result from the response's
// effective method/config and requires bit-equality — the protocol's core
// guarantee. Closed-form responses recompute through a 1-option
// LevelAdvanced batch (composition independence makes that equal to any
// coalesced mega-batch); scalar-engine responses through finbench.Price.
func verifyAgainstLibrary(t *testing.T, mkt finbench.Market, req *PriceRequest, resp *PriceResponse) {
	t.Helper()
	method, err := wire.ParseMethod(resp.Method)
	if err != nil {
		t.Fatalf("response method: %v", err)
	}
	cfg := resp.Config.ToConfig()
	for i := range req.Options {
		o := req.Options[i]
		var want, wantStdErr float64
		if method == finbench.ClosedForm {
			b := finbench.NewBatch(1)
			b.Spots[0], b.Strikes[0], b.Expiries[0] = o.Spot, o.Strike, o.Expiry
			if err := finbench.PriceBatch(b, mkt, finbench.LevelAdvanced); err != nil {
				t.Fatal(err)
			}
			if o.Type == "put" {
				want = b.Puts[0]
			} else {
				want = b.Calls[0]
			}
		} else {
			res, err := finbench.Price(o.ToOption(), mkt, method, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStdErr = res.Price, res.StdErr
		}
		got := resp.Results[i]
		if got.Price != want || got.StdErr != wantStdErr {
			t.Errorf("option %d (%s %v): server (%v,%v) != library (%v,%v)",
				i, resp.Method, o, got.Price, got.StdErr, want, wantStdErr)
		}
	}
}

func TestPriceClosedFormBitMatchesLibrary(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := &PriceRequest{Options: []WireOption{
		{Type: "call", Spot: 100, Strike: 105, Expiry: 0.5},
		{Type: "put", Spot: 90, Strike: 100, Expiry: 1.25},
		{Spot: 120, Strike: 100, Expiry: 2},
	}}
	resp, body := postJSON(t, ts.URL+"/price", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	pr := decodePrice(t, body)
	if pr.Engine != "batch-advanced" {
		t.Errorf("engine = %q, want batch-advanced", pr.Engine)
	}
	if len(pr.Results) != len(req.Options) {
		t.Fatalf("got %d results, want %d", len(pr.Results), len(req.Options))
	}
	verifyAgainstLibrary(t, s.cfg.Market, req, pr)
}

func TestPriceHeavyMethodsBitMatchLibrary(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []PriceRequest{
		{Method: "binomial-tree", Options: []WireOption{
			{Type: "put", Style: "american", Spot: 100, Strike: 110, Expiry: 1},
			{Type: "call", Spot: 100, Strike: 95, Expiry: 0.5},
		}, Config: wire.Config{BinomialSteps: 256}},
		{Method: "crank-nicolson", Options: []WireOption{
			{Type: "put", Style: "american", Spot: 90, Strike: 100, Expiry: 1},
		}, Config: wire.Config{GridPoints: 128, TimeSteps: 200}},
		{Method: "trinomial-tree", Options: []WireOption{
			{Type: "call", Spot: 100, Strike: 100, Expiry: 0.75},
		}, Config: wire.Config{BinomialSteps: 256}},
		{Method: "monte-carlo", Options: []WireOption{
			{Type: "call", Spot: 100, Strike: 100, Expiry: 0.5},
		}, Config: wire.Config{MCPaths: 16384, Seed: 42}},
	}
	for i := range cases {
		req := &cases[i]
		resp, body := postJSON(t, ts.URL+"/price", req)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", req.Method, resp.StatusCode, body)
		}
		pr := decodePrice(t, body)
		if pr.Engine != "scalar" {
			t.Errorf("%s: engine = %q, want scalar", req.Method, pr.Engine)
		}
		verifyAgainstLibrary(t, s.cfg.Market, req, pr)
	}
}

// TestCoalescingMergesConcurrentRequests drives many small concurrent
// requests through the coalescer and checks that every response
// bit-matches the library whatever batch it rode, and that its coalesced
// flag agrees with its batch size. Which requests overlap is the
// scheduler's business; that overlapping tickets do merge is pinned
// deterministically in the coalesce package.
func TestCoalescingMergesConcurrentRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := &PriceRequest{Options: []WireOption{
				{Type: "call", Spot: 100 + float64(c), Strike: 100, Expiry: 0.5},
				{Type: "put", Spot: 100, Strike: 95 + float64(c), Expiry: 1},
			}}
			data, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/price", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				errs[c] = err
				return
			}
			if resp.StatusCode != 200 {
				errs[c] = fmt.Errorf("status %d: %s", resp.StatusCode, buf.Bytes())
				return
			}
			var pr PriceResponse
			if err := json.Unmarshal(buf.Bytes(), &pr); err != nil {
				errs[c] = err
				return
			}
			if pr.Coalesced != (pr.BatchOptions > len(req.Options)) {
				errs[c] = fmt.Errorf("coalesced=%v with batch_options=%d for a %d-option request",
					pr.Coalesced, pr.BatchOptions, len(req.Options))
				return
			}
			verifyAgainstLibrary(t, s.cfg.Market, req, &pr)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	snap := s.co.Snapshot()
	if got := snap.SoloFlushes + snap.CoalescedTickets; got != clients {
		t.Errorf("coalescer counted %d tickets for %d requests: %+v", got, clients, snap)
	}
}

func TestDeadlineExceededReturns408(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := &PriceRequest{
		Method:     "monte-carlo",
		Options:    []WireOption{{Type: "call", Spot: 100, Strike: 100, Expiry: 0.5}},
		Config:     wire.Config{MCPaths: 1 << 22},
		DeadlineMS: 1,
	}
	resp, body := postJSON(t, ts.URL+"/price", req)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408: %s", resp.StatusCode, body)
	}
}

func TestDrainRefusesNewWorkAndCompletes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	req := &PriceRequest{Options: []WireOption{{Spot: 100, Strike: 100, Expiry: 1}}}
	resp, body := postJSON(t, ts.URL+"/price", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status after drain = %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", hr.StatusCode)
	}
}

func TestRateLimit429(t *testing.T) {
	_, ts := newTestServer(t, Config{Rate: 1, Burst: 1})
	req := &PriceRequest{Options: []WireOption{{Spot: 100, Strike: 100, Expiry: 1}}}
	resp1, _ := postJSON(t, ts.URL+"/price", req)
	if resp1.StatusCode != 200 {
		t.Fatalf("first request: %d", resp1.StatusCode)
	}
	resp2, _ := postJSON(t, ts.URL+"/price", req)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp2.StatusCode)
	}
}

func TestStatszShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := &PriceRequest{Options: []WireOption{{Spot: 100, Strike: 100, Expiry: 1}}}
	if resp, _ := postJSON(t, ts.URL+"/price", req); resp.StatusCode != 200 {
		t.Fatalf("price: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatszResponse
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests["price"] != 1 {
		t.Errorf("price requests = %d, want 1", snap.Requests["price"])
	}
	if snap.Codes["200"] == 0 {
		t.Error("no 200s counted")
	}
	if len(snap.Sched) == 0 {
		t.Error("sched counters missing")
	}
	if snap.LatencyUS["closed-form"].Count != 1 {
		t.Errorf("closed-form latency count = %d, want 1", snap.LatencyUS["closed-form"].Count)
	}
	if snap.MaxUnits <= 0 {
		t.Error("max_units not reported")
	}
}

// TestCacheDisabledNoHeader: a lone server does not cache (the pricing
// cache lives in the router): no X-Finserve-Cache header on /price and
// no cache block in /statsz.
func TestCacheDisabledNoHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{CoalesceMaxBatch: 1, ProfileEvery: -1})
	req := &PriceRequest{Options: []WireOption{{Spot: 100, Strike: 100, Expiry: 1}}}
	resp, body := postJSON(t, ts.URL+"/price", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(pricecache.Header); got != "" {
		t.Fatalf("lone server sent %s = %q", pricecache.Header, got)
	}
	stats, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(stats.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap["cache"]; ok {
		t.Fatalf("lone server's /statsz has a cache block: %s", snap["cache"])
	}
}

func TestGreeksMatchesLibrary(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := &wire.GreeksRequest{Options: []WireOption{
		{Type: "call", Spot: 100, Strike: 105, Expiry: 0.5},
		{Type: "put", Spot: 100, Strike: 95, Expiry: 1},
	}}
	resp, body := postJSON(t, ts.URL+"/greeks", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var gr wire.GreeksResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	for i := range req.Options {
		o := req.Options[i]
		g, err := finbench.ComputeGreeks(o.ToOption(), s.cfg.Market)
		if err != nil {
			t.Fatal(err)
		}
		wantDelta := g.DeltaCall
		if o.Type == "put" {
			wantDelta = g.DeltaPut
		}
		if gr.Results[i].Delta != wantDelta || gr.Results[i].Gamma != g.Gamma {
			t.Errorf("option %d greeks mismatch: %+v", i, gr.Results[i])
		}
	}
}

func TestBadRequests400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []string{
		`{}`,             // no options
		`{"options":[]}`, // empty options
		`{"options":[{"spot":-1,"strike":1,"expiry":1}]}`,                                          // negative spot
		`{"method":"nope","options":[{"spot":1,"strike":1,"expiry":1}]}`,                           // unknown method
		`{"method":"monte-carlo","options":[{"style":"american","spot":1,"strike":1,"expiry":1}]}`, // MC american
		`not json`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/price", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestAdmissionSemaphore(t *testing.T) {
	a := newAdmission(100)
	got, ok := a.acquire(60, 0)
	if !ok || got != 60 {
		t.Fatalf("first acquire: %d, %v", got, ok)
	}
	if _, ok := a.acquire(60, 0); ok {
		t.Fatal("second acquire of 60/100 should fail with zero wait")
	}
	// A bounded wait succeeds once the first holder releases.
	done := make(chan bool)
	go func() {
		_, ok := a.acquire(60, time.Second)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	a.release(60)
	if !<-done {
		t.Fatal("waiter was not granted after release")
	}
	a.release(60)
	if a.inFlight() != 0 {
		t.Fatalf("inFlight = %d, want 0", a.inFlight())
	}
	// Oversized requests clamp to the budget instead of deadlocking.
	got, ok = a.acquire(1<<40, 0)
	if !ok || got != 100 {
		t.Fatalf("oversized acquire: %d, %v", got, ok)
	}
	a.release(got)
}

func TestDegradeHysteresis(t *testing.T) {
	// Built without the ticker goroutine so evaluate() calls below can't
	// race a real window swap.
	d := &degrader{enabled: true}
	// Window of 30% shed turns degrade on.
	for i := 0; i < 70; i++ {
		d.noteAdmit()
	}
	for i := 0; i < 30; i++ {
		d.noteShed()
	}
	d.evaluate()
	if !d.active() {
		t.Fatal("degrade did not engage at 30% shed")
	}
	// A 5% window keeps it on (hysteresis band)...
	for i := 0; i < 95; i++ {
		d.noteAdmit()
	}
	for i := 0; i < 5; i++ {
		d.noteShed()
	}
	d.evaluate()
	if !d.active() {
		t.Fatal("degrade flapped off inside the hysteresis band")
	}
	// ...and a clean window turns it off.
	for i := 0; i < 100; i++ {
		d.noteAdmit()
	}
	d.evaluate()
	if d.active() {
		t.Fatal("degrade did not disengage after a clean window")
	}
	if got := d.flips.Load(); got != 2 {
		t.Errorf("transitions = %d, want 2", got)
	}
}

// fillWindow records shed shed-outcomes and total-shed admits, then
// closes the window.
func fillWindow(d *degrader, total, shed int) {
	for i := 0; i < total-shed; i++ {
		d.noteAdmit()
	}
	for i := 0; i < shed; i++ {
		d.noteShed()
	}
	d.evaluate()
}

// TestDegradeHysteresisBoundaries pins the exact comparison directions at
// the two watermarks: the enter threshold is inclusive (rate >= high
// engages), the exit threshold is inclusive (rate <= low disengages), and
// the band between them preserves the current state in both directions.
func TestDegradeHysteresisBoundaries(t *testing.T) {
	d := &degrader{enabled: true}

	// Exactly at the high watermark (10/100 = degradeHighWater): engages.
	fillWindow(d, 100, int(degradeHighWater*100))
	if !d.active() {
		t.Fatalf("rate exactly %.2f did not engage degrade", degradeHighWater)
	}
	// Just under the high watermark from the ON state: stays on.
	fillWindow(d, 100, int(degradeHighWater*100)-1)
	if !d.active() {
		t.Fatal("rate just under the enter threshold flapped degrade off")
	}
	// Just above the low watermark: still on.
	fillWindow(d, 100, int(degradeLowWater*100)+1)
	if !d.active() {
		t.Fatal("rate just above the exit threshold flapped degrade off")
	}
	// Exactly at the low watermark: disengages.
	fillWindow(d, 100, int(degradeLowWater*100))
	if d.active() {
		t.Fatalf("rate exactly %.2f did not disengage degrade", degradeLowWater)
	}
	// Just under the high watermark from the OFF state: stays off.
	fillWindow(d, 100, int(degradeHighWater*100)-1)
	if d.active() {
		t.Fatal("rate just under the enter threshold engaged degrade")
	}
	if got := d.flips.Load(); got != 2 {
		t.Errorf("transitions = %d, want exactly 2 (one on, one off)", got)
	}
}

// TestDegradeMinSamplesBoundary pins the window-size floor: one outcome
// short of degradeMinSamples is ignored even at 100% shed, and exactly
// degradeMinSamples evaluates.
func TestDegradeMinSamplesBoundary(t *testing.T) {
	d := &degrader{enabled: true}
	fillWindow(d, degradeMinSamples-1, degradeMinSamples-1)
	if d.active() {
		t.Fatal("a sub-minimum window flipped degrade on")
	}
	fillWindow(d, degradeMinSamples, degradeMinSamples)
	if !d.active() {
		t.Fatal("an exactly-minimum fully-shed window did not flip degrade on")
	}
	// A sub-minimum clean window must not flip it back off either.
	fillWindow(d, degradeMinSamples-1, 0)
	if !d.active() {
		t.Fatal("a sub-minimum window flipped degrade off")
	}
}

// TestDegradeNoFlappingUnderOscillation drives windows oscillating right
// around each watermark — the load pattern hysteresis exists for — and
// requires exactly one transition per true crossing, never one per window.
func TestDegradeNoFlappingUnderOscillation(t *testing.T) {
	d := &degrader{enabled: true}
	// Off-state oscillation just below/above the *exit* threshold: the
	// enter threshold is never reached, so degrade must stay off.
	for i := 0; i < 10; i++ {
		fillWindow(d, 100, 1) // 1% — under both watermarks
		fillWindow(d, 100, 9) // 9% — inside the band
	}
	if d.active() || d.flips.Load() != 0 {
		t.Fatalf("off-state oscillation flipped degrade (flips=%d)", d.flips.Load())
	}
	// One true overload crossing…
	fillWindow(d, 100, 25)
	if !d.active() {
		t.Fatal("a 25-percent-shed window did not engage degrade")
	}
	// …then on-state oscillation across the *enter* threshold: 9% and 11%
	// both stay above the exit threshold, so no transition may occur.
	for i := 0; i < 10; i++ {
		fillWindow(d, 100, 9)
		fillWindow(d, 100, 11)
	}
	if !d.active() {
		t.Fatal("on-state oscillation flapped degrade off")
	}
	if got := d.flips.Load(); got != 1 {
		t.Errorf("flips = %d after oscillation, want exactly 1", got)
	}
	// Recovery is a single clean transition.
	fillWindow(d, 100, 0)
	if d.active() || d.flips.Load() != 2 {
		t.Fatalf("clean window: active=%v flips=%d, want off/2", d.active(), d.flips.Load())
	}
}

func TestHealthzShape(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.MaxUnits <= 0 {
		t.Errorf("max_units = %d, want > 0", h.MaxUnits)
	}
	if h.InFlightUnits != 0 || h.QueueDepth != 0 {
		t.Errorf("idle server reports in_flight=%d queue=%d", h.InFlightUnits, h.QueueDepth)
	}

	// Draining: 503, Retry-After, and the body says so.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("draining healthz missing Retry-After")
	}
	var hd HealthResponse
	if err := json.NewDecoder(resp2.Body).Decode(&hd); err != nil {
		t.Fatal(err)
	}
	if hd.Status != "draining" {
		t.Errorf("draining status = %q", hd.Status)
	}
}

func TestApplyDegrade(t *testing.T) {
	base := finbench.Config{BinomialSteps: 1024, GridPoints: 256, TimeSteps: 1000, MCPaths: 262144, Seed: 1}
	m, c := applyDegrade(finbench.MonteCarlo, base, true)
	if m != finbench.MonteCarlo || c.MCPaths != 262144/8 {
		t.Errorf("MC degrade: %v paths=%d", m, c.MCPaths)
	}
	m, _ = applyDegrade(finbench.BinomialTree, base, true)
	if m != finbench.ClosedForm {
		t.Errorf("European binomial should degrade to closed form, got %v", m)
	}
	m, c = applyDegrade(finbench.BinomialTree, base, false)
	if m != finbench.BinomialTree || c.BinomialSteps != 256 {
		t.Errorf("American binomial degrade: %v steps=%d", m, c.BinomialSteps)
	}
	m, c = applyDegrade(finbench.FiniteDifference, base, false)
	if m != finbench.FiniteDifference || c.TimeSteps != 250 {
		t.Errorf("American CN degrade: %v ts=%d", m, c.TimeSteps)
	}
	// Floors hold.
	small := finbench.Config{MCPaths: 5000, BinomialSteps: 100, GridPoints: 64, TimeSteps: 60}
	_, c = applyDegrade(finbench.MonteCarlo, small, true)
	if c.MCPaths != 4096 {
		t.Errorf("MC floor: %d", c.MCPaths)
	}
	_, c = applyDegrade(finbench.BinomialTree, small, false)
	if c.BinomialSteps != 64 {
		t.Errorf("steps floor: %d", c.BinomialSteps)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 0; i < 90; i++ {
		h.observe(10 * time.Microsecond) // bucket 4 (8-15us), ceiling 15
	}
	for i := 0; i < 10; i++ {
		h.observe(10 * time.Millisecond)
	}
	if p50 := h.quantile(0.50); p50 != 15 {
		t.Errorf("p50 = %d, want 15", p50)
	}
	if p99 := h.quantile(0.99); p99 < 8192 {
		t.Errorf("p99 = %d, want a millisecond-scale ceiling", p99)
	}
	snap := h.snapshot()
	if snap.Count != 100 {
		t.Errorf("count = %d", snap.Count)
	}
}

// TestMonteCarloRequestSharesStream pins the request-level Monte Carlo
// path: a 4-option mixed call/put request generates its normals once,
// and its reply must equal, field for field, four 1-option replies and
// the library's per-option result — each option priced as if alone on
// stream (0, seed).
func TestMonteCarloRequestSharesStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := &PriceRequest{Method: "monte-carlo", Options: []WireOption{
		{Type: "call", Spot: 100, Strike: 100, Expiry: 0.5},
		{Type: "put", Spot: 100, Strike: 110, Expiry: 1},
		{Type: "put", Spot: 80, Strike: 75, Expiry: 0.25},
		{Spot: 120, Strike: 100, Expiry: 2},
	}, Config: wire.Config{MCPaths: 5000, Seed: 42}}
	resp, body := postJSON(t, ts.URL+"/price", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	whole := decodePrice(t, body)
	if whole.Engine != "scalar" || len(whole.Results) != len(req.Options) {
		t.Fatalf("engine %q, %d results", whole.Engine, len(whole.Results))
	}
	verifyAgainstLibrary(t, s.cfg.Market, req, whole)
	for i := range req.Options {
		one := &PriceRequest{Method: req.Method, Options: req.Options[i : i+1], Config: req.Config}
		resp, body := postJSON(t, ts.URL+"/price", one)
		if resp.StatusCode != 200 {
			t.Fatalf("option %d alone: status %d: %s", i, resp.StatusCode, body)
		}
		alone := decodePrice(t, body)
		if alone.Results[0] != whole.Results[i] {
			t.Errorf("option %d: alone %+v, in the request %+v", i, alone.Results[0], whole.Results[i])
		}
		if alone.Method != whole.Method || alone.Engine != whole.Engine || alone.Config != whole.Config {
			t.Errorf("option %d: echoes differ: %+v vs %+v", i, alone, whole)
		}
	}

	// An American contract in position 2 fails the whole request at
	// decode, before any path is drawn (the body is the parent's).
	bad := *req
	bad.Options = append([]WireOption(nil), req.Options...)
	bad.Options[2].Style = "american"
	resp, body = postJSON(t, ts.URL+"/price", &bad)
	const want = `{"error":"option 2: method monte-carlo is European-only"}` + "\n"
	if resp.StatusCode != http.StatusBadRequest || string(body) != want {
		t.Errorf("american in position 2: status %d body %q, want 400 %q", resp.StatusCode, body, want)
	}
}
