package wire

import (
	"bytes"
	"strings"
	"testing"

	"finbench"
)

func TestColumnarRequestRoundTrip(t *testing.T) {
	cases := []*PriceRequest{
		{Columnar: &Columns{Spots: []float64{100}, Strikes: []float64{105}, Expiries: []float64{0.5}}},
		{
			Columnar: &Columns{
				Spots:    []float64{100, 101.5, 99.25},
				Strikes:  []float64{105, 106, 107},
				Expiries: []float64{0.5, 0.25, 1},
				Types:    "cpc",
				Styles:   "eee",
			},
			DeadlineMS: 2500,
		},
	}
	for i, req := range cases {
		frame := AppendColumnarRequest(nil, req)
		got, method, err := DecodeColumnarRequest(frame)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if method != finbench.ClosedForm {
			t.Fatalf("case %d: method %v", i, method)
		}
		if !sameRequest(got, req) {
			t.Fatalf("case %d: round trip diverges:\n got: %+v\nwant: %+v", i, got.Columnar, req.Columnar)
		}
		// Re-encode must be byte-identical.
		again := AppendColumnarRequest(nil, got)
		if !bytes.Equal(again, frame) {
			t.Fatalf("case %d: re-encode differs", i)
		}
		PutRequest(got)
	}
}

func TestColumnarRequestRejects(t *testing.T) {
	good := AppendColumnarRequest(nil, &PriceRequest{
		Columnar: &Columns{Spots: []float64{100}, Strikes: []float64{105}, Expiries: []float64{0.5}},
	})
	reject := func(name string, frame []byte, wantSub string) {
		t.Helper()
		if _, _, err := DecodeColumnarRequest(frame); err == nil {
			t.Errorf("%s: accepted", name)
		} else if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q missing %q", name, err, wantSub)
		}
	}
	reject("empty", nil, "truncated")
	reject("short header", good[:10], "truncated")
	badMagic := append([]byte{}, good...)
	badMagic[0] = 'X'
	reject("bad magic", badMagic, "magic")
	badFlags := append([]byte{}, good...)
	badFlags[4] = 0x80
	reject("unknown flags", badFlags, "flags")
	reject("truncated body", good[:len(good)-1], "length")
	reject("trailing bytes", append(append([]byte{}, good...), 0), "length")
	negSpot := AppendColumnarRequest(nil, &PriceRequest{
		Columnar: &Columns{Spots: []float64{-1}, Strikes: []float64{105}, Expiries: []float64{0.5}},
	})
	reject("negative spot", negSpot, "positive")
	amer := AppendColumnarRequest(nil, &PriceRequest{
		Columnar: &Columns{Spots: []float64{100}, Strikes: []float64{105}, Expiries: []float64{0.5}, Styles: "a"},
	})
	reject("american style", amer, "European-only")
	badType := AppendColumnarRequest(nil, &PriceRequest{
		Columnar: &Columns{Spots: []float64{100}, Strikes: []float64{105}, Expiries: []float64{0.5}, Types: "x"},
	})
	reject("bad type", badType, "unknown option type")
	// A count field implying more data than the frame has must fail the
	// length check before any allocation.
	huge := append([]byte{}, good...)
	huge[9], huge[10], huge[11], huge[12] = 0xff, 0xff, 0xff, 0xff
	reject("count overflow", huge, "length")
}

func TestColumnarResponseRoundTrip(t *testing.T) {
	cases := []*PriceResponse{
		{
			Results: []Result{{Price: 10.450583572185565}},
			Method:  "closed-form",
			Engine:  "batch-advanced",
		},
		{
			Results:      []Result{{Price: 1.5}, {Price: -0.0}, {Price: 2.25}},
			Method:       "closed-form",
			Config:       Config{BinomialSteps: 512, GridPoints: 7, TimeSteps: 9, MCPaths: 11, Seed: 1234567890123},
			Engine:       "batch-advanced",
			Degraded:     true,
			Coalesced:    true,
			BatchOptions: 4096,
			ElapsedUS:    987654,
		},
	}
	for i, r := range cases {
		frame, err := AppendColumnarResponse(nil, r)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !ValidColumnarResponse(frame) {
			t.Fatalf("case %d: ValidColumnarResponse rejects own encoding", i)
		}
		got, err := DecodeColumnarResponse(frame)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Method != r.Method || got.Engine != r.Engine || got.Config != r.Config ||
			got.Degraded != r.Degraded || got.Coalesced != r.Coalesced ||
			got.BatchOptions != r.BatchOptions || got.ElapsedUS != r.ElapsedUS {
			t.Fatalf("case %d: metadata diverges: %+v vs %+v", i, got, r)
		}
		if len(got.Results) != len(r.Results) {
			t.Fatalf("case %d: %d results", i, len(got.Results))
		}
		for j := range r.Results {
			// Bit-exact, including -0.0.
			if got.Results[j].Price != r.Results[j].Price {
				t.Fatalf("case %d result %d: %v vs %v", i, j, got.Results[j].Price, r.Results[j].Price)
			}
		}
	}
}

func TestColumnarResponseValidation(t *testing.T) {
	frame, err := AppendColumnarResponse(nil, &PriceResponse{
		Results: []Result{{Price: 1}}, Method: "closed-form", Engine: "scalar",
	})
	if err != nil {
		t.Fatal(err)
	}
	if ValidColumnarResponse(frame[:len(frame)-1]) {
		t.Error("accepted truncated frame")
	}
	bad := append([]byte{}, frame...)
	bad[5] = 99
	if ValidColumnarResponse(bad) {
		t.Error("accepted unknown method byte")
	}
	if _, err := DecodeColumnarResponse(bad); err == nil {
		t.Error("decoded unknown method byte")
	}
	if _, err := AppendColumnarResponse(nil, &PriceResponse{Method: "nope", Engine: "scalar"}); err == nil {
		t.Error("encoded unknown method")
	}
}

func TestSniffColumnar(t *testing.T) {
	frame := AppendColumnarRequest(nil, &PriceRequest{
		Columnar:   &Columns{Spots: []float64{100}, Strikes: []float64{105}, Expiries: []float64{0.5}},
		DeadlineMS: 750,
	})
	if _, ok := SniffColumnarDeadline([]byte(`{"options":[],"deadline_ms":750}`)); ok {
		t.Error("SniffColumnarDeadline matched JSON")
	}
	dl, ok := SniffColumnarDeadline(frame)
	if !ok || dl != 750 {
		t.Errorf("SniffColumnarDeadline = %d, %v", dl, ok)
	}
	if _, ok := SniffColumnarDeadline(frame[:8]); ok {
		t.Error("sniffed deadline from a truncated header")
	}
}

func TestDecodeColumnarAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	req := &PriceRequest{
		Columnar: &Columns{
			Spots:    make([]float64, 64),
			Strikes:  make([]float64, 64),
			Expiries: make([]float64, 64),
		},
	}
	for i := 0; i < 64; i++ {
		req.Columnar.Spots[i] = 100 + float64(i)
		req.Columnar.Strikes[i] = 105
		req.Columnar.Expiries[i] = 0.5
	}
	frame := AppendColumnarRequest(nil, req)
	for i := 0; i < 8; i++ {
		r, _, err := DecodeColumnarRequest(frame)
		if err != nil {
			t.Fatal(err)
		}
		PutRequest(r)
	}
	allocs := testing.AllocsPerRun(500, func() {
		r, _, err := DecodeColumnarRequest(frame)
		if err != nil {
			t.Fatal(err)
		}
		PutRequest(r)
	})
	// No type/style columns: the pure-float frame decodes with zero
	// allocations in steady state.
	if allocs != 0 {
		t.Errorf("DecodeColumnarRequest allocates %.1f/op; want 0", allocs)
	}
}

func FuzzDecodeColumnar(f *testing.F) {
	f.Add(AppendColumnarRequest(nil, &PriceRequest{
		Columnar: &Columns{Spots: []float64{100}, Strikes: []float64{105}, Expiries: []float64{0.5}},
	}))
	f.Add(AppendColumnarRequest(nil, &PriceRequest{
		Columnar: &Columns{
			Spots: []float64{100, 90}, Strikes: []float64{105, 95},
			Expiries: []float64{0.5, 1}, Types: "cp", Styles: "ee",
		},
		DeadlineMS: 100,
	}))
	f.Add([]byte("FBC1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, method, err := DecodeColumnarRequest(data)
		if err != nil {
			return
		}
		defer PutRequest(req)
		// Any accepted frame is closed-form, carries validated columns,
		// and round-trips byte-identically.
		if method != finbench.ClosedForm {
			t.Fatalf("accepted method %v", method)
		}
		n := req.NumOptions()
		if n == 0 || n > MaxRequestOptions {
			t.Fatalf("accepted %d options", n)
		}
		again := AppendColumnarRequest(nil, req)
		if !bytes.Equal(again, data) {
			t.Fatalf("round trip diverges:\n in:  %x\n out: %x", data, again)
		}
	})
}
