package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"finbench"
	"finbench/internal/cranknicolson"
	"finbench/internal/serve/pricecache"
	"finbench/internal/serve/wire"
	"finbench/internal/workload"
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
// LevelAdvanced batch (composition independence makes that equal to the
// request's own batch); scalar-engine responses through finbench.Price.
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
			res, err := finbench.PriceCtx(context.Background(), o.ToOption(), mkt, method, &cfg)
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
	req := &PriceRequest{Options: []wire.Option{
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

// Only the unset fields of Config.Market take defaults: a server given
// just a rate prices at that rate and the default volatility.
func TestMarketDefaultsOnlyUnsetFields(t *testing.T) {
	def := finbench.Market{Rate: 0.02, Volatility: 0.3}
	for _, tc := range []struct{ set, want finbench.Market }{
		{finbench.Market{}, def},
		{finbench.Market{Rate: 0.05}, finbench.Market{Rate: 0.05, Volatility: 0.3}},
		{finbench.Market{Rate: -0.01}, finbench.Market{Rate: -0.01, Volatility: 0.3}},
		{finbench.Market{Volatility: 0.2}, finbench.Market{Volatility: 0.2}},
		{finbench.Market{Rate: 0.05, Volatility: 0.2}, finbench.Market{Rate: 0.05, Volatility: 0.2}},
	} {
		s, ts := newTestServer(t, Config{Market: tc.set})
		if s.cfg.Market != tc.want {
			t.Errorf("Market %+v: served at %+v, want %+v", tc.set, s.cfg.Market, tc.want)
		}
		req := &PriceRequest{Method: "binomial-tree", Options: []wire.Option{
			{Type: "put", Style: "american", Spot: 100, Strike: 110, Expiry: 1.5},
		}}
		resp, body := postJSON(t, ts.URL+"/price", req)
		if resp.StatusCode != 200 {
			t.Fatalf("Market %+v: status %d: %s", tc.set, resp.StatusCode, body)
		}
		verifyAgainstLibrary(t, tc.want, req, decodePrice(t, body))
	}
	// The hub's Market takes its unset fields from the server's.
	srv := finbench.Market{Rate: 0.05, Volatility: 0.25}
	for _, tc := range []struct{ set, want finbench.Market }{
		{finbench.Market{}, srv},
		{finbench.Market{Rate: 0.01}, finbench.Market{Rate: 0.01, Volatility: 0.25}},
		{finbench.Market{Volatility: 0.4}, finbench.Market{Volatility: 0.4}},
	} {
		if got := withMarketDefaults(tc.set, srv); got != tc.want {
			t.Errorf("hub Market %+v under a server at %+v: %+v, want %+v", tc.set, srv, got, tc.want)
		}
	}
}

func TestPriceHeavyMethodsBitMatchLibrary(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []PriceRequest{
		{Method: "binomial-tree", Options: []wire.Option{
			{Type: "put", Style: "american", Spot: 100, Strike: 110, Expiry: 1},
			{Type: "call", Spot: 100, Strike: 95, Expiry: 0.5},
		}, Config: wire.Config{BinomialSteps: 256}},
		{Method: "crank-nicolson", Options: []wire.Option{
			{Type: "put", Style: "american", Spot: 90, Strike: 100, Expiry: 1},
		}, Config: wire.Config{GridPoints: 128, TimeSteps: 200}},
		{Method: "trinomial-tree", Options: []wire.Option{
			{Type: "call", Spot: 100, Strike: 100, Expiry: 0.75},
		}, Config: wire.Config{BinomialSteps: 256}},
		{Method: "monte-carlo", Options: []wire.Option{
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

// TestConcurrentClosedFormPricedAlone fires 16 concurrent clients at
// once, each with a few closed-form requests of its own size, in JSON
// and in the binary frame. Every request is priced alone: each reply's
// batch_options is its own option count, it carries no coalesced key
// (JSON) or flag bit (FBR1), and every price bit-matches the library.
// A server that merges overlapping requests fails here.
func TestConcurrentClosedFormPricedAlone(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const clients, rounds = 16, 8
	for _, columnar := range []bool{false, true} {
		name := "json"
		if columnar {
			name = "columnar"
		}
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			start := make(chan struct{})
			errs := make([]error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					req := &PriceRequest{}
					for i := 0; i <= c; i++ {
						typ := "call"
						if i%2 == 1 {
							typ = "put"
						}
						req.Options = append(req.Options, wire.Option{
							Type: typ, Spot: 90 + float64(c), Strike: 95 + float64(i), Expiry: 0.5 + 0.1*float64(i),
						})
					}
					<-start
					for r := 0; r < rounds && errs[c] == nil; r++ {
						errs[c] = postAlone(t, s.cfg.Market, ts.URL, req, columnar)
					}
				}(c)
			}
			close(start)
			wg.Wait()
			for c, err := range errs {
				if err != nil {
					t.Errorf("client %d: %v", c, err)
				}
			}
		})
	}
}

// postAlone posts one closed-form request in the chosen framing and
// checks that its reply is the request priced on its own.
func postAlone(t *testing.T, mkt finbench.Market, url string, req *PriceRequest, columnar bool) error {
	n := len(req.Options)
	ctype, data := "application/json", []byte(nil)
	if columnar {
		cols := &wire.Columns{}
		for _, o := range req.Options {
			cols.Spots = append(cols.Spots, o.Spot)
			cols.Strikes = append(cols.Strikes, o.Strike)
			cols.Expiries = append(cols.Expiries, o.Expiry)
			cols.Types += o.Type[:1]
		}
		ctype, data = wire.ColumnarContentType, wire.AppendColumnarRequest(nil, &wire.PriceRequest{Columnar: cols})
	} else {
		data, _ = json.Marshal(req)
	}
	resp, err := http.Post(url+"/price", ctype, bytes.NewReader(data))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var pr *PriceResponse
	if columnar {
		if len(raw) > 4 && raw[4] != 0 {
			return fmt.Errorf("FBR1 flags 0x%02x, want none", raw[4])
		}
		if pr, err = wire.DecodeColumnarResponse(raw); err != nil {
			return err
		}
	} else {
		if bytes.Contains(raw, []byte(`"coalesced"`)) {
			return fmt.Errorf("reply carries a coalesced key: %s", raw)
		}
		pr = &PriceResponse{}
		if err := json.Unmarshal(raw, pr); err != nil {
			return err
		}
	}
	if pr.BatchOptions != n || len(pr.Results) != n {
		return fmt.Errorf("batch_options %d, %d results for a %d-option request", pr.BatchOptions, len(pr.Results), n)
	}
	verifyAgainstLibrary(t, mkt, req, pr)
	return nil
}

func TestDeadlineExceededReturns408(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := &PriceRequest{
		Method:     "monte-carlo",
		Options:    []wire.Option{{Type: "call", Spot: 100, Strike: 100, Expiry: 0.5}},
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
	req := &PriceRequest{Options: []wire.Option{{Spot: 100, Strike: 100, Expiry: 1}}}
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

// TestStatszShape pins the /statsz schema of a default server: the exact
// key set of the top-level object and of its requests, codes and shed
// maps (stream is off: no hub), plus a few live values. The server prices
// each request once, so no key reports a sampled re-pricing.
func TestStatszShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := &PriceRequest{Options: []wire.Option{{Spot: 100, Strike: 100, Expiry: 1}}}
	if resp, _ := postJSON(t, ts.URL+"/price", req); resp.StatusCode != 200 {
		t.Fatalf("price: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	keysOf := func(raw json.RawMessage) []string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	for _, tc := range []struct {
		name string
		raw  json.RawMessage
		want []string
	}{
		{"top level", body, []string{"codes", "draining", "in_flight_units", "latency_us",
			"max_units", "requests", "scenario", "sched", "shed", "uptime_s"}},
		{"requests", top["requests"], []string{"greeks", "price", "price_columnar", "scenario", "stream"}},
		{"codes", top["codes"], []string{"200", "400", "404", "405", "408", "503"}},
		{"shed", top["shed"], []string{"admission", "drain"}},
	} {
		if got := keysOf(tc.raw); !slices.Equal(got, tc.want) {
			t.Errorf("%s keys = %q, want %q", tc.name, got, tc.want)
		}
	}

	var snap StatszResponse
	if err := json.Unmarshal(body, &snap); err != nil {
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
	_, ts := newTestServer(t, Config{})
	req := &PriceRequest{Options: []wire.Option{{Spot: 100, Strike: 100, Expiry: 1}}}
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
	req := &wire.GreeksRequest{Options: []wire.Option{
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

// TestGreeksAmerican400: closed-form greeks are European; an American
// option answers 400 naming it, never the European greeks.
func TestGreeksAmerican400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/greeks", &wire.GreeksRequest{Options: []wire.Option{
		{Type: "put", Spot: 80, Strike: 100, Expiry: 1},
		{Type: "put", Style: "american", Spot: 80, Strike: 100, Expiry: 1},
	}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "option 1: closed-form greeks are European-only") {
		t.Fatalf("status %d (%s), want 400 naming option 1 as European-only", resp.StatusCode, body)
	}
}

// expectCap400 posts body to path and requires a 400 whose error names
// the cap.
func expectCap400(t *testing.T, path string, body any, limit int) {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	resp, out := postJSON(t, ts.URL+path, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%s one above the cap: status %d, want 400: %s", path, resp.StatusCode, out)
	}
	var e ErrorResponse
	if err := json.Unmarshal(out, &e); err != nil || !strings.Contains(e.Error, "> "+strconv.Itoa(limit)) {
		t.Fatalf("%s error %q does not name the cap %d", path, out, limit)
	}
}

func TestPriceCapsBinomialSteps(t *testing.T) {
	expectCap400(t, "/price", &PriceRequest{
		Method:  "binomial-tree",
		Options: []wire.Option{{Spot: 100, Strike: 100, Expiry: 1}},
		Config:  wire.Config{BinomialSteps: maxBinomialSteps + 1},
	}, maxBinomialSteps)
}

func TestPriceCapsGridPoints(t *testing.T) {
	expectCap400(t, "/price", &PriceRequest{
		Method:  "crank-nicolson",
		Options: []wire.Option{{Spot: 100, Strike: 100, Expiry: 1}},
		Config:  wire.Config{GridPoints: maxGridPoints + 1, TimeSteps: 64},
	}, maxGridPoints)
}

func TestPriceCapsTimeSteps(t *testing.T) {
	expectCap400(t, "/price", &PriceRequest{
		Method:  "crank-nicolson",
		Options: []wire.Option{{Spot: 100, Strike: 100, Expiry: 1}},
		Config:  wire.Config{GridPoints: 64, TimeSteps: maxTimeSteps + 1},
	}, maxTimeSteps)
}

// grid_points 1 to 3 are accepted (only the upper bound is capped). At
// J = 1 the served solver has no interior point to eliminate, at J = 2 and
// 3 one or two. Every put of a 1- to 3-put request must answer 200
// bit-equal to its lone solve, which the cranknicolson oracle holds to
// PSOR at a tight threshold.
func TestPriceCrankNicolsonTinyGrids(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	mkt := workload.MarketParams{R: s.cfg.Market.Rate, Sigma: s.cfg.Market.Volatility}
	opts := []wire.Option{
		{Type: "put", Style: "american", Spot: 100, Strike: 110, Expiry: 1.5},
		{Type: "put", Spot: 90, Strike: 100, Expiry: 1},
		{Type: "put", Style: "american", Spot: 120, Strike: 100, Expiry: 0.25},
	}
	for _, jpoints := range []int{1, 2, 3} {
		for _, nsteps := range []int{1, 2} {
			for n := 1; n <= len(opts); n++ {
				req := &PriceRequest{Method: "crank-nicolson", Options: opts[:n], Config: wire.Config{GridPoints: jpoints, TimeSteps: nsteps}}
				resp, body := postJSON(t, ts.URL+"/price", req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("J=%d N=%d %d puts: status %d: %s", jpoints, nsteps, n, resp.StatusCode, body)
				}
				pr := decodePrice(t, body)
				for i, o := range req.Options {
					lone := []cranknicolson.Put{{Spot: o.Spot, Strike: o.Strike, T: o.Expiry, American: o.Style == "american"}}
					if err := cranknicolson.PricePutsCtx(context.Background(), lone, jpoints, nsteps, mkt); err != nil {
						t.Fatal(err)
					}
					if got, want := pr.Results[i].Price, lone[0].Price; math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("J=%d N=%d %d puts, put %d: %.17g, lone solve %.17g", jpoints, nsteps, n, i, got, want)
					}
				}
			}
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

// TestAdmissionHeadTimeoutGrantsQueued: a waiter queued behind a head
// waiter that times out is granted when the head leaves, if the budget
// has room for it, instead of waiting out its own timeout to be shed.
func TestAdmissionHeadTimeoutGrantsQueued(t *testing.T) {
	a := newAdmission(10)
	held, _ := a.acquire(5, 0)
	head, behind := make(chan bool, 1), make(chan bool, 1)
	go func() { _, ok := a.acquire(10, 200*time.Millisecond); head <- ok }()
	for a.queued() != 1 {
		runtime.Gosched()
	}
	go func() { _, ok := a.acquire(3, 2*time.Second); behind <- ok }()
	for a.queued() != 2 {
		runtime.Gosched()
	}
	if <-head {
		t.Fatal("head waiter for 10 units granted while 5 of 10 are held")
	}
	if !<-behind {
		t.Fatal("waiter for 3 units shed although the head's timeout left room for it")
	}
	if got := a.inFlight(); got != held+3 {
		t.Errorf("inFlight = %d, want %d", got, held+3)
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
	req := &PriceRequest{Method: "monte-carlo", Options: []wire.Option{
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
	bad.Options = append([]wire.Option(nil), req.Options...)
	bad.Options[2].Style = "american"
	resp, body = postJSON(t, ts.URL+"/price", &bad)
	const want = `{"error":"option 2: method monte-carlo is European-only"}` + "\n"
	if resp.StatusCode != http.StatusBadRequest || string(body) != want {
		t.Errorf("american in position 2: status %d body %q, want 400 %q", resp.StatusCode, body, want)
	}
}
