package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"testing"

	"finbench/internal/serve/wire"
)

// nonFiniteProbes are valid contracts (finite, positive parameters) at
// the edges of the closed form's range. Some results are not finite: JSON
// cannot carry them, so the endpoint must answer 400, never a 200 with an
// empty body (behind a router such a 200 is a corrupt-200 breaker
// failure). allNonFinite marks a contract every endpoint must refuse.
var nonFiniteProbes = []struct {
	name                 string
	spot, strike, expiry float64
	allNonFinite         bool
}{
	{"denormal", 5e-324, 5e-324, 5e-324, true},
	{"huge-expiry", 100, 100, 1e308, false},
	{"huge", 1e308, 1e308, 1e308, false},
	{"denormal-spot", 5e-324, 1, 1, false},
	{"huge-spot", 1e308, 1e-308, 1e308, false},
}

// pricingEndpoints are the handlers that price contracts, in each
// framing.
var pricingEndpoints = []struct{ name, path, ctype string }{
	{"price", "/price", "application/json"},
	{"price-fbc1", "/price", wire.ColumnarContentType},
	{"greeks", "/greeks", "application/json"},
	{"scenario", "/scenario", "application/json"},
}

// contractBodies returns one body per pricingEndpoints entry, each
// pricing the one contract.
func contractBodies(spot, strike, expiry float64) [][]byte {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	c := `"spot":` + f(spot) + `,"strike":` + f(strike) + `,"expiry":` + f(expiry)
	frame := wire.AppendColumnarRequest(nil, &wire.PriceRequest{Columnar: &wire.Columns{
		Spots: []float64{spot}, Strikes: []float64{strike}, Expiries: []float64{expiry},
	}})
	return [][]byte{
		[]byte(`{"options":[{` + c + `}]}`),
		frame,
		[]byte(`{"options":[{` + c + `}]}`),
		[]byte(`{"portfolio":[{` + c + `,"quantity":1}],"grid":{"spot_shocks":[0]}}`),
	}
}

// TestNonFiniteResultAnswers400: each endpoint, in each framing, answers
// a probe contract with a 200 whose body is well-formed and finite, or
// with 400 and a JSON error naming the cause.
func TestNonFiniteResultAnswers400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, p := range nonFiniteProbes {
		bodies := contractBodies(p.spot, p.strike, p.expiry)
		for i, ep := range pricingEndpoints {
			t.Run(p.name+"/"+ep.name, func(t *testing.T) {
				resp, err := http.Post(ts.URL+ep.path, ep.ctype, bytes.NewReader(bodies[i]))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK && !p.allNonFinite:
					if err := checkFinite200(resp.Header.Get("Content-Type"), body); err != nil {
						t.Fatal(err)
					}
				case resp.StatusCode == http.StatusBadRequest:
					var e ErrorResponse
					if err := json.Unmarshal(body, &e); err != nil || e.Error != wire.NonFiniteError {
						t.Fatalf("body %q: want a JSON error %q (%v)", body, wire.NonFiniteError, err)
					}
				default:
					t.Fatalf("status %d; body %q", resp.StatusCode, body)
				}
			})
		}
	}
}

// checkFinite200 checks that a 200 body is well-formed in its framing
// and carries only finite prices.
func checkFinite200(ctype string, body []byte) error {
	if ctype == wire.ColumnarContentType {
		resp, err := wire.DecodeColumnarResponse(body)
		if err != nil {
			return err
		}
		for i, r := range resp.Results {
			if math.IsNaN(r.Price) || math.IsInf(r.Price, 0) {
				return fmt.Errorf("FBC1 200 carries price %d = %v", i, r.Price)
			}
		}
		return nil
	}
	if !json.Valid(body) {
		return fmt.Errorf("200 body is not JSON: %q", body)
	}
	return nil
}
