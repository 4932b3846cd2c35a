package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"finbench"
	"finbench/internal/scenario"
	"finbench/internal/serve/wire"
)

// market is the flat market every server prices against (finserve's
// shipped -market-rate / -market-vol defaults).
var market = finbench.Market{Rate: 0.02, Volatility: 0.3}

// scanNumbers appends every JSON number in data to dst, in order,
// skipping string contents. It is the client's decode of a JSON reply:
// the cost of turning a response into prices without reflection.
func scanNumbers(dst []float64, data []byte) []float64 {
	for i := 0; i < len(data); {
		c := data[i]
		switch {
		case c == '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
			i++
		case c == '-' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(data) && isNumberByte(data[j]) {
				j++
			}
			if v, err := strconv.ParseFloat(string(data[i:j]), 64); err == nil {
				dst = append(dst, v)
			}
			i = j
		default:
			i++
		}
	}
	return dst
}

func isNumberByte(c byte) bool {
	return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

// FBR1 response frame layout (internal/serve/wire/columnar.go).
const (
	fbrHeader     = 47
	fbrElapsedOff = 35
	fbrCountOff   = 43
)

// decodeColumnarPrices appends the prices of a binary FBR1 frame to dst
// and returns the echoed elapsed_us.
func decodeColumnarPrices(dst []float64, data []byte) ([]float64, int64, bool) {
	if len(data) < fbrHeader || string(data[:4]) != "FBR1" {
		return dst, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[fbrCountOff:]))
	if len(data) != fbrHeader+8*n {
		return dst, 0, false
	}
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(data[fbrHeader+8*i:])))
	}
	return dst, int64(binary.LittleEndian.Uint64(data[fbrElapsedOff:])), true
}

// sameBits is the protocol's equality: every 200 is bit-reproducible.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// verify recomputes a retained reply with the library and returns "" when
// it bit-matches, or what differs. Prices are recomputed from the
// *echoed* method and config, as a client of the protocol would.
func verify(r *request, body []byte) string {
	switch r.kind {
	case kindGreeks:
		return verifyGreeks(r, body)
	case kindScenario:
		return verifyScenario(r, body)
	case kindColumnar:
		resp, err := wire.DecodeColumnarResponse(body)
		if err != nil {
			return err.Error()
		}
		c := r.cols
		return verifyPrices(resp, c.Spots, c.Strikes, c.Expiries, func(i int) bool { return c.Types[i] == 'p' }, nil)
	}
	var resp wire.PriceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "decoding reply: " + err.Error()
	}
	n := len(r.opts)
	spots, strikes, expiries := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range r.opts {
		spots[i], strikes[i], expiries[i] = r.opts[i].Spot, r.opts[i].Strike, r.opts[i].Expiry
	}
	return verifyPrices(&resp, spots, strikes, expiries, func(i int) bool { return r.opts[i].Type == "put" }, r.opts)
}

// verifyPrices checks a /price reply. Closed form is recomputed as one
// LevelAdvanced batch — composition independence makes that equal to
// whatever mega-batch the server priced the request in; every other
// method goes through finbench.PriceCtx per option.
func verifyPrices(resp *wire.PriceResponse, spots, strikes, expiries []float64, isPut func(int) bool, opts []wire.Option) string {
	method, err := wire.ParseMethod(resp.Method)
	if err != nil {
		return err.Error()
	}
	if resp.Degraded {
		return "reply is degraded; the workload must not shed"
	}
	if len(resp.Results) != len(spots) {
		return fmt.Sprintf("%d results for %d options", len(resp.Results), len(spots))
	}
	if method == finbench.ClosedForm {
		b := &finbench.Batch{
			Spots: spots, Strikes: strikes, Expiries: expiries,
			Calls: make([]float64, len(spots)), Puts: make([]float64, len(spots)),
		}
		if err := finbench.PriceBatch(b, market, finbench.LevelAdvanced); err != nil {
			return err.Error()
		}
		for i := range spots {
			want := b.Calls[i]
			if isPut(i) {
				want = b.Puts[i]
			}
			if !sameBits(resp.Results[i].Price, want) {
				return fmt.Sprintf("option %d: price %v, library %v", i, resp.Results[i].Price, want)
			}
		}
		return ""
	}
	cfg := resp.Config.ToConfig()
	for i := range opts {
		want, err := finbench.PriceCtx(context.Background(), opts[i].ToOption(), market, method, &cfg)
		if err != nil {
			return err.Error()
		}
		got := resp.Results[i]
		if !sameBits(got.Price, want.Price) || !sameBits(got.StdErr, want.StdErr) {
			return fmt.Sprintf("option %d (%s): price %v±%v, library %v±%v",
				i, resp.Method, got.Price, got.StdErr, want.Price, want.StdErr)
		}
	}
	return ""
}

func verifyGreeks(r *request, body []byte) string {
	var resp wire.GreeksResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "decoding reply: " + err.Error()
	}
	if len(resp.Results) != len(r.opts) {
		return fmt.Sprintf("%d results for %d options", len(resp.Results), len(r.opts))
	}
	for i := range r.opts {
		g, err := finbench.ComputeGreeks(r.opts[i].ToOption(), market)
		if err != nil {
			return err.Error()
		}
		want := wire.Greeks{Delta: g.DeltaCall, Gamma: g.Gamma, Vega: g.Vega, Theta: g.ThetaCall, Rho: g.RhoCall}
		if r.opts[i].Type == "put" {
			want.Delta, want.Theta, want.Rho = g.DeltaPut, g.ThetaPut, g.RhoPut
		}
		got := resp.Results[i]
		if !sameBits(got.Delta, want.Delta) || !sameBits(got.Gamma, want.Gamma) || !sameBits(got.Vega, want.Vega) ||
			!sameBits(got.Theta, want.Theta) || !sameBits(got.Rho, want.Rho) {
			return fmt.Sprintf("option %d: greeks %+v, library %+v", i, got, want)
		}
	}
	return ""
}

// verifyScenario requires the reply byte-identical to the library's own
// evaluate + finalize, which is what makes a routed merge checkable.
func verifyScenario(r *request, body []byte) string {
	base, pnl, err := scenario.EvaluateCells(context.Background(), r.scen, market, 0, r.scen.NumCells())
	if err != nil {
		return err.Error()
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(scenario.Finalize(r.scen, base, 0, pnl)); err != nil {
		return err.Error()
	}
	if !bytes.Equal(body, want.Bytes()) {
		return fmt.Sprintf("scenario body differs from the library's (%d vs %d bytes)", len(body), want.Len())
	}
	return ""
}

// verifyAll recomputes every retained reply of a phase; each mismatch is
// a failed operation of that phase, listed with its ordinal.
func verifyAll(p *phase) (verified, mismatch int) {
	for i := range p.samples {
		s := &p.samples[i]
		if what := verify(s.req, s.body); what != "" {
			mismatch++
			p.fail(s.ordinal, "verification: %s", what)
		} else {
			verified++
		}
	}
	p.samples = nil
	return verified, mismatch
}
