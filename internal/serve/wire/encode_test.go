package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// refEncode is the reference: exactly what the server's legacy writeJSON
// produced for a 200 body.
func refEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

func goldenPriceResponses() []*PriceResponse {
	return []*PriceResponse{
		{
			Results: []Result{{Price: 10.450583572185565}},
			Method:  "closed-form",
			Engine:  "batch-advanced",
		},
		{
			Results: []Result{
				{Price: 0}, {Price: -0.0}, {Price: 1e-7}, {Price: 9.999e-7},
				{Price: 1e-6}, {Price: 1e20}, {Price: 999999999999999999999.0},
				{Price: 1e21}, {Price: 1.5e21}, {Price: 5e-324}, {Price: math.MaxFloat64},
				{Price: -1e-9, StdErr: 2.5e-3}, {Price: 3.14, StdErr: -0.0},
			},
			Method:    "monte-carlo",
			Config:    Config{MCPaths: 1 << 20, Seed: 42},
			Engine:    "scalar",
			ElapsedUS: 12345,
		},
		{
			Results:      []Result{{Price: 1.25, StdErr: 0.5}},
			Method:       "closed-form",
			Config:       Config{BinomialSteps: 512, GridPoints: 1024, TimeSteps: 2048, MCPaths: 65536, Seed: math.MaxUint64},
			Engine:       "batch-advanced",
			Degraded:     true,
			BatchOptions: 4096,
			ElapsedUS:    -1,
		},
		{
			Results: []Result{},
			Method:  "binomial-tree",
			Config:  Config{BinomialSteps: 1},
			Engine:  "scalar",
		},
	}
}

func TestAppendPriceResponseMatchesEncodingJSON(t *testing.T) {
	for i, r := range goldenPriceResponses() {
		want := refEncode(t, r)
		got, ok := AppendPriceResponse(nil, r)
		if !ok {
			t.Fatalf("case %d: append encoder refused a valid response", i)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: append encoder diverges\n got: %s\nwant: %s", i, got, want)
		}
	}
}

func TestAppendPriceResponseRandomFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		var price float64
		for {
			price = math.Float64frombits(rng.Uint64())
			if !math.IsNaN(price) && !math.IsInf(price, 0) {
				break
			}
		}
		r := &PriceResponse{
			Results: []Result{{Price: price, StdErr: rng.Float64()}},
			Method:  "closed-form",
			Engine:  "batch-advanced",
		}
		want := refEncode(t, r)
		got, ok := AppendPriceResponse(nil, r)
		if !ok {
			t.Fatalf("trial %d: refused price %x", trial, math.Float64bits(price))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: price bits %x\n got: %s\nwant: %s",
				trial, math.Float64bits(price), got, want)
		}
	}
}

func TestAppendPriceResponseRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := &PriceResponse{Results: []Result{{Price: bad}}, Method: "closed-form", Engine: "scalar"}
		dst := []byte("prefix")
		got, ok := AppendPriceResponse(dst, r)
		if ok {
			t.Errorf("append encoder accepted non-finite %v", bad)
		}
		if !bytes.Equal(got, []byte("prefix")) {
			t.Errorf("failed encode did not return the original dst")
		}
		// encoding/json also refuses, and so does the binary frame.
		if _, err := json.Marshal(r); err == nil {
			t.Errorf("reference encoder accepted non-finite %v", bad)
		}
		if _, err := AppendColumnarResponse(nil, r); err == nil || err.Error() != NonFiniteError {
			t.Errorf("columnar encoder on non-finite %v: error %v, want %q", bad, err, NonFiniteError)
		}
	}
}

func TestAppendGreeksResponseMatchesEncodingJSON(t *testing.T) {
	cases := []*GreeksResponse{
		{Results: []Greeks{}, ElapsedUS: 0},
		{
			Results: []Greeks{
				{Delta: 0.6368306511756191, Gamma: 0.018762017345846895, Vega: 37.52403469169379, Theta: -6.414027546438197, Rho: 53.232481545376345},
				{Delta: 0, Gamma: -0.0, Vega: 1e-9, Theta: -1e21, Rho: 5e-324},
			},
			ElapsedUS: 987654321,
		},
	}
	for i, r := range cases {
		want := refEncode(t, r)
		got, ok := AppendGreeksResponse(nil, r)
		if !ok {
			t.Fatalf("case %d: refused valid greeks", i)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got: %s\nwant: %s", i, got, want)
		}
	}
	bad := &GreeksResponse{Results: []Greeks{{Theta: math.Inf(-1)}}}
	if _, ok := AppendGreeksResponse(nil, bad); ok {
		t.Error("accepted non-finite theta")
	}
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"",
		"batch-advanced",
		"closed-form",
		"with \"quotes\" and \\backslash",
		"control\x00\x1f\n\r\tchars",
		"html <b>&amp;</b>",
		"unicode: héllo, 世界, \u2028line\u2029sep",
		"invalid utf8: \xff\xfe",
		"mixed \x01<\xc3\x28>\u2028",
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("string %q:\n got: %s\nwant: %s", s, got, want)
		}
	}
}

func TestAppendConfigOmitemptyMatrix(t *testing.T) {
	// Every subset of set/zero fields must match encoding/json's omitempty.
	for mask := 0; mask < 32; mask++ {
		var c Config
		if mask&1 != 0 {
			c.BinomialSteps = 100
		}
		if mask&2 != 0 {
			c.GridPoints = 200
		}
		if mask&4 != 0 {
			c.TimeSteps = 300
		}
		if mask&8 != 0 {
			c.MCPaths = 400
		}
		if mask&16 != 0 {
			c.Seed = 500
		}
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		got := appendConfig(nil, &c)
		if !bytes.Equal(got, want) {
			t.Errorf("mask %05b:\n got: %s\nwant: %s", mask, got, want)
		}
	}
}

func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := &PriceResponse{
		Results:   make([]Result, 64),
		Method:    "closed-form",
		Engine:    "batch-advanced",
		ElapsedUS: 42,
	}
	for i := range r.Results {
		r.Results[i].Price = float64(i) * 1.25
	}
	buf := make([]byte, 0, 1<<16)
	allocs := testing.AllocsPerRun(200, func() {
		b, ok := AppendPriceResponse(buf[:0], r)
		if !ok || len(b) == 0 {
			t.Fatal("encode failed")
		}
	})
	if allocs != 0 {
		t.Errorf("AppendPriceResponse allocates %.1f/op; want 0", allocs)
	}
}
