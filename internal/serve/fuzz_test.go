package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"finbench/internal/serve/wire"
)

// FuzzDecodeRequest fuzzes the wire decoder: arbitrary bytes must either
// produce an error or a request satisfying every invariant the handlers
// rely on (bounded option count, finite positive parameters, known
// method/type/style combinations, non-negative deadline and config).
// Differential fast-path-vs-reference equality is pinned by the wire
// package's own FuzzDecodeRequest; this one guards the handler contract.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"options":[{"type":"call","spot":100,"strike":105,"expiry":0.5}]}`))
	f.Add([]byte(`{"method":"monte-carlo","options":[{"spot":90,"strike":100,"expiry":1}],"config":{"mc_paths":16384,"seed":7},"deadline_ms":250}`))
	f.Add([]byte(`{"method":"binomial-tree","options":[{"type":"put","style":"american","spot":100,"strike":110,"expiry":1}],"config":{"binomial_steps":512}}`))
	f.Add([]byte(`{"options":[{"spot":1e308,"strike":1e-308,"expiry":3}]}`))
	f.Add([]byte(`{"columnar":{"spot":[100,90],"strike":[105,95],"expiry":[0.5,1],"type":"cp"}}`))
	f.Add([]byte(`{"options":[]}`))
	f.Add([]byte(`{"options":[{"spot":-1,"strike":0,"expiry":0}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"method":"quantum","options":[{"spot":1,"strike":1,"expiry":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, method, err := wire.DecodeRequest(data)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		defer wire.PutRequest(req)
		if n := req.NumOptions(); n == 0 || n > wire.MaxRequestOptions {
			t.Fatalf("accepted request with %d options", n)
		}
		parsed, merr := wire.ParseMethod(req.Method)
		if merr != nil {
			t.Fatalf("accepted unknown method %q", req.Method)
		}
		if parsed != method {
			t.Fatalf("returned method %v but name parses to %v", method, parsed)
		}
		if req.DeadlineMS < 0 {
			t.Fatalf("accepted negative deadline %d", req.DeadlineMS)
		}
		if req.Config.BinomialSteps < 0 || req.Config.GridPoints < 0 ||
			req.Config.TimeSteps < 0 || req.Config.MCPaths < 0 {
			t.Fatalf("accepted negative config %+v", req.Config)
		}
		if req.Columnar != nil {
			t.Fatal("a JSON body decoded to columnar framing")
		}
		for i := range req.Options {
			o := &req.Options[i]
			switch o.Type {
			case "", "call", "put":
			default:
				t.Fatalf("accepted option type %q", o.Type)
			}
			switch o.Style {
			case "", "european", "american":
			default:
				t.Fatalf("accepted exercise style %q", o.Style)
			}
			for _, v := range [3]float64{o.Spot, o.Strike, o.Expiry} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Fatalf("accepted option %d with parameter %v", i, v)
				}
			}
			if o.Style == "american" && (method == 0 || req.Method == "monte-carlo") {
				t.Fatalf("accepted American option for European-only method %q", req.Method)
			}
			// Validated options must convert cleanly.
			_ = o.ToOption()
		}
	})
}

// FuzzPriceHandler drives arbitrary bodies through the pricing handlers
// in both framings; the selector byte picks one of pricingEndpoints.
// Every answer must carry a documented status (200, 400, 408, or 503
// when shed), every 200 must be well-formed in its framing (json.Valid,
// or wire.ValidColumnarResponse for FBC1), and every other status must
// carry a JSON error. The server runs at its own limits; each input is
// bounded by a 250ms request deadline, which the granted deadline
// context inherits.
func FuzzPriceHandler(f *testing.F) {
	for i, body := range contractBodies(5e-324, 5e-324, 5e-324) {
		f.Add(uint8(i), body)
	}
	f.Add(uint8(0), []byte(`{"options":[{"type":"put","spot":100,"strike":105,"expiry":0.5}]}`))
	f.Add(uint8(0), []byte(`{"method":"monte-carlo","options":[{"spot":90,"strike":100,"expiry":1}],"config":{"mc_paths":1024,"seed":7}}`))
	f.Add(uint8(0), []byte(`{"method":"binomial-tree","options":[{"type":"put","style":"american","spot":100,"strike":110,"expiry":1}],"config":{"binomial_steps":64}}`))
	f.Add(uint8(1), wire.AppendColumnarRequest(nil, &wire.PriceRequest{Columnar: &wire.Columns{
		Spots: []float64{100, 90}, Strikes: []float64{105, 95}, Expiries: []float64{0.5, 1}, Types: "cp",
	}}))
	f.Add(uint8(2), []byte(`{"options":[{"spot":100,"strike":100,"expiry":1}],"deadline_ms":50}`))
	f.Add(uint8(3), []byte(`{"portfolio":[{"spot":100,"strike":105,"expiry":0.5,"quantity":2}],"grid":{"spot_shocks":[-0.1,0,0.1]}}`))

	s := New(Config{})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		ep := pricingEndpoints[int(sel)%len(pricingEndpoints)]
		ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
		defer cancel()
		req := httptest.NewRequestWithContext(ctx, http.MethodPost, ep.path, bytes.NewReader(body))
		req.Header.Set("Content-Type", ep.ctype)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		out := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusOK:
			if rec.Header().Get("Content-Type") == wire.ColumnarContentType {
				if !wire.ValidColumnarResponse(out) {
					t.Fatalf("%s: malformed FBC1 200 %x", ep.path, out)
				}
			} else if !json.Valid(out) {
				t.Fatalf("%s: 200 body is not JSON: %q", ep.path, out)
			}
		case http.StatusBadRequest, http.StatusRequestTimeout, http.StatusServiceUnavailable:
			var e ErrorResponse
			if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
				t.Fatalf("%s: %d without a JSON error: %q", ep.path, rec.Code, out)
			}
		default:
			t.Fatalf("%s: undocumented status %d: %q", ep.path, rec.Code, out)
		}
	})
}
