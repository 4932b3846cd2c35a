package serve

import (
	"math"
	"testing"

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
		req, method, err := DecodeRequest(data)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		defer PutRequest(req)
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
		if c := req.Columnar; c != nil {
			if len(req.Options) != 0 {
				t.Fatal("accepted both framings at once")
			}
			if method != 0 {
				t.Fatalf("accepted columnar with method %v", method)
			}
			n := len(c.Spots)
			if len(c.Strikes) != n || len(c.Expiries) != n {
				t.Fatalf("accepted ragged columns: %d/%d/%d", n, len(c.Strikes), len(c.Expiries))
			}
			if (c.Types != "" && len(c.Types) != n) || (c.Styles != "" && len(c.Styles) != n) {
				t.Fatal("accepted ragged type/style columns")
			}
			for i := 0; i < n; i++ {
				for _, v := range [3]float64{c.Spots[i], c.Strikes[i], c.Expiries[i]} {
					if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
						t.Fatalf("accepted column entry %d with parameter %v", i, v)
					}
				}
				if c.Types != "" && c.Types[i] != 'c' && c.Types[i] != 'p' {
					t.Fatalf("accepted type byte %q", c.Types[i])
				}
				if c.Styles != "" && c.Styles[i] != 'e' {
					t.Fatalf("accepted style byte %q", c.Styles[i])
				}
			}
			return
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
