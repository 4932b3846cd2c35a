package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"finbench"
)

// refDecodePrice is the pre-fast-path behavior: one json.Unmarshal into a
// zero request, then the shared validation.
func refDecodePrice(data []byte) (*PriceRequest, finbench.Method, error) {
	req := new(PriceRequest)
	if err := json.Unmarshal(data, req); err != nil {
		return nil, 0, err
	}
	method, err := validatePrice(req)
	if err != nil {
		return nil, 0, err
	}
	return req, method, nil
}

// sameRequest compares the decoder-visible fields (ignoring scratch
// internals and whether Columnar points at the pooled scratch).
func sameRequest(a, b *PriceRequest) bool {
	if a.Method != b.Method || a.DeadlineMS != b.DeadlineMS || a.Config != b.Config {
		return false
	}
	if len(a.Options) != len(b.Options) {
		return false
	}
	for i := range a.Options {
		if a.Options[i] != b.Options[i] {
			return false
		}
	}
	if (a.Columnar == nil) != (b.Columnar == nil) {
		return false
	}
	if a.Columnar != nil {
		ac, bc := a.Columnar, b.Columnar
		if !reflect.DeepEqual(ac.Spots, bc.Spots) || !reflect.DeepEqual(ac.Strikes, bc.Strikes) ||
			!reflect.DeepEqual(ac.Expiries, bc.Expiries) || ac.Types != bc.Types || ac.Styles != bc.Styles {
			return false
		}
	}
	return true
}

// checkDecodeAgainstReference asserts DecodeRequest and the reference
// path agree on accept/reject and decoded content for one body.
func checkDecodeAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	refReq, refMethod, refErr := refDecodePrice(body)
	req, method, err := DecodeRequest(body)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("body %q: decode err=%v, reference err=%v", body, err, refErr)
	}
	if err != nil {
		if err.Error() != refErr.Error() {
			t.Fatalf("body %q: error text diverges\n got: %v\nwant: %v", body, err, refErr)
		}
		return
	}
	defer PutRequest(req)
	if method != refMethod {
		t.Fatalf("body %q: method %v, reference %v", body, method, refMethod)
	}
	if !sameRequest(req, refReq) {
		t.Fatalf("body %q: decoded request diverges\n got: %+v\nwant: %+v", body, req, refReq)
	}
}

func TestDecodeRequestMatchesReference(t *testing.T) {
	bodies := []string{
		// Fast-path shapes.
		`{"options":[{"spot":100,"strike":105,"expiry":0.5}]}`,
		`{"method":"closed-form","options":[{"spot":100,"strike":105,"expiry":0.5}]}`,
		`{"method":"monte-carlo","options":[{"type":"put","spot":90.5,"strike":100,"expiry":1}],"config":{"mc_paths":4096,"seed":7},"deadline_ms":250}`,
		`{"options":[{"type":"call","style":"european","spot":1e2,"strike":1.05e2,"expiry":5e-1}]}`,
		`{"method":"binomial-tree","options":[{"style":"american","type":"put","spot":100,"strike":100,"expiry":1}],"config":{"binomial_steps":512}}`,
		` { "options" : [ { "spot" : 100 , "strike" : 105 , "expiry" : 0.5 } ] } `,
		`{"options":[{"spot":100,"strike":105,"expiry":0.5},{"spot":1,"strike":2,"expiry":3}]}`,
		// Validation failures (must produce identical error text).
		`{}`,
		`{"options":[]}`,
		`{"method":"bogus"}`,
		`{"method":"bogus","options":[{"spot":1,"strike":1,"expiry":1}]}`,
		`{"options":[{"spot":-1,"strike":1,"expiry":1}]}`,
		`{"options":[{"spot":0,"strike":1,"expiry":1}]}`,
		`{"options":[{"type":"x","spot":1,"strike":1,"expiry":1}]}`,
		`{"options":[{"style":"x","spot":1,"strike":1,"expiry":1}]}`,
		`{"options":[{"style":"american","spot":1,"strike":1,"expiry":1}]}`,
		`{"method":"monte-carlo","options":[{"style":"american","spot":1,"strike":1,"expiry":1}]}`,
		`{"deadline_ms":-5,"options":[{"spot":1,"strike":1,"expiry":1}]}`,
		`{"config":{"mc_paths":-1},"options":[{"spot":1,"strike":1,"expiry":1}]}`,
		// Columns have no JSON form: "columnar" is an unknown key, so the
		// body has no options (400) or only its options count.
		`{"columnar":{"spot":[100,101],"strike":[105,106],"expiry":[0.5,0.25],"type":"cp","style":"ee"}}`,
		`{"columnar":{"spot":[100],"strike":[105],"expiry":[0.5]},"deadline_ms":100}`,
		`{"columnar":{"spot":[100],"strike":[105,1],"expiry":[0.5]}}`,
		`{"columnar":{"spot":[100],"strike":[105],"expiry":[0.5]},"options":[{"spot":1,"strike":1,"expiry":1}]}`,
		`{"columnar":{"spot":[100],"strike":[105],"expiry":[0.5]},"method":"monte-carlo"}`,
		`{"columnar":{"spot":[100],"strike":[105],"expiry":[0.5]},"method":"closed-form","deadline_ms":3}`,
		`{"columnar":{"spot":[100],"strike":[105],"expiry":[0.5],"type":"x"}}`,
		`{"columnar":{"spot":[100],"strike":[105],"expiry":[0.5],"style":"a"}}`,
		`{"columnar":{"spot":[],"strike":[],"expiry":[]}}`,
		`{"columnar":{"spot":[-1],"strike":[105],"expiry":[0.5]}}`,
		// Fallback-path shapes (escapes, unknowns, dups, odd tokens).
		`{"options":[{"spot":100,"strike":105,"expiry":0.5}],"extra":1}`,
		`{"method":"closed-form","options":[{"spot":100,"strike":105,"expiry":0.5}]}`,
		`{"method":"closed-form","method":"monte-carlo","options":[{"spot":1,"strike":1,"expiry":1}],"config":{"mc_paths":64}}`,
		`{"options":[{"spot":100,"strike":105,"expiry":0.5}],"deadline_ms":1.5}`,
		`{"options":[{"spot":100,"strike":105,"expiry":0.5}],"deadline_ms":1e3}`,
		`{"config":{"mc_paths":99999999999999999999},"options":[{"spot":1,"strike":1,"expiry":1}]}`,
		`{"options":[{"spot":1e999,"strike":1,"expiry":1}]}`,
		`{"options":null}`,
		`{"options":[{"spot":"100","strike":105,"expiry":0.5}]}`,
		`{"méthode":"x","options":[{"spot":1,"strike":1,"expiry":1}]}`,
		`{"options":[{"spot":100,"strike":105,"expiry":0.5}]`,
		`[]`,
		`null`,
		``,
		`{"options":[{"spot":100,"strike":105,"expiry":0.5}]} trailing`,
		`{"options":[{"spot":01,"strike":1,"expiry":1}]}`,
	}
	for _, body := range bodies {
		checkDecodeAgainstReference(t, []byte(body))
	}
}

func TestDecodeRequestFastPathTaken(t *testing.T) {
	// White-box: the canonical client shapes must decode on the fast path
	// (the zero-alloc property depends on it).
	fastBodies := []string{
		`{"options":[{"spot":100,"strike":105,"expiry":0.5}]}`,
		`{"method":"monte-carlo","options":[{"type":"put","spot":90.5,"strike":100,"expiry":1}],"config":{"mc_paths":4096,"seed":7},"deadline_ms":250}`,
	}
	for _, body := range fastBodies {
		var req PriceRequest
		if !fastDecodePrice([]byte(body), &req) {
			t.Errorf("fast path refused canonical body %s", body)
		}
	}
}

func TestDecodeRequestPooledReuseNoStaleState(t *testing.T) {
	// A rich request followed by a minimal one through the same pool must
	// not leak fields — in particular via the reference-decode merge
	// behavior of json.Unmarshal into retained backing arrays.
	rich := []byte(`{"method":"monte-carlo","options":[{"type":"put","style":"european","spot":90,"strike":100,"expiry":1},{"type":"put","spot":91,"strike":100,"expiry":1}],"config":{"mc_paths":4096,"seed":7},"deadline_ms":250}`)
	// "extra" forces the fallback reference decode into the pooled object.
	minimal := []byte(`{"options":[{"spot":100,"strike":105,"expiry":0.5},{"spot":1,"strike":2,"expiry":3}],"extra":true}`)
	for i := 0; i < 32; i++ {
		req, _, err := DecodeRequest(rich)
		if err != nil {
			t.Fatal(err)
		}
		PutRequest(req)
		req2, method, err := DecodeRequest(minimal)
		if err != nil {
			t.Fatal(err)
		}
		if method != finbench.ClosedForm {
			t.Fatalf("stale method: %v", method)
		}
		if req2.Config != (Config{}) || req2.DeadlineMS != 0 {
			t.Fatalf("stale config/deadline: %+v %d", req2.Config, req2.DeadlineMS)
		}
		want := []Option{{Spot: 100, Strike: 105, Expiry: 0.5}, {Spot: 1, Strike: 2, Expiry: 3}}
		for j, o := range req2.Options {
			if o != want[j] {
				t.Fatalf("stale option %d: %+v", j, o)
			}
		}
		PutRequest(req2)
	}
}

func TestDecodeColumnarPooledReuse(t *testing.T) {
	// A binary frame then a JSON body through the same pool: the JSON
	// request must not report columnar framing.
	col := AppendColumnarRequest(nil, &PriceRequest{Columnar: &Columns{
		Spots: []float64{100, 101}, Strikes: []float64{105, 106}, Expiries: []float64{0.5, 0.25},
		Types: "cp", Styles: "ee",
	}})
	aos := []byte(`{"options":[{"spot":7,"strike":8,"expiry":9}]}`)
	for i := 0; i < 8; i++ {
		req, _, err := DecodeColumnarRequest(col)
		if err != nil {
			t.Fatal(err)
		}
		if req.NumOptions() != 2 || !req.IsPut(1) || req.IsPut(0) {
			t.Fatalf("columnar decode wrong: %+v", req.Columnar)
		}
		PutRequest(req)
		req2, _, err := DecodeRequest(aos)
		if err != nil {
			t.Fatal(err)
		}
		if req2.Columnar != nil {
			t.Fatal("stale columnar framing after pool reuse")
		}
		if req2.NumOptions() != 1 || req2.Options[0].Spot != 7 {
			t.Fatalf("wrong AOS decode: %+v", req2.Options)
		}
		PutRequest(req2)
	}
}

func TestDecodeGreeksRequestMatchesReference(t *testing.T) {
	bodies := []string{
		`{"options":[{"spot":100,"strike":105,"expiry":0.5}]}`,
		`{"options":[{"type":"put","spot":100,"strike":105,"expiry":0.5}],"deadline_ms":50}`,
		`{"options":[],"deadline_ms":-1}`,
		`{"options":[{"spot":-1,"strike":1,"expiry":1}]}`,
		`{"options":[{"type":"x","spot":1,"strike":1,"expiry":1}]}`,
		`{"options":[{"spot":1,"strike":1,"expiry":1}],"unknown":1}`,
		`not json`,
	}
	for _, body := range bodies {
		refReq := new(GreeksRequest)
		refErr := json.Unmarshal([]byte(body), refReq)
		if refErr == nil {
			refErr = validateGreeks(refReq)
		}
		req, err := DecodeGreeksRequest([]byte(body))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("body %q: err=%v ref=%v", body, err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("body %q: error text diverges\n got: %v\nwant: %v", body, err, refErr)
			}
			continue
		}
		if req.DeadlineMS != refReq.DeadlineMS || !reflect.DeepEqual(append([]Option{}, req.Options...), append([]Option{}, refReq.Options...)) {
			t.Fatalf("body %q: decode diverges: %+v vs %+v", body, req, refReq)
		}
		PutGreeksRequest(req)
	}
}

func TestDecodeAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	body := []byte(`{"method":"closed-form","options":[{"spot":100,"strike":105,"expiry":0.5},{"type":"put","spot":95,"strike":100,"expiry":0.25}],"deadline_ms":100}`)
	// Warm the pool.
	for i := 0; i < 8; i++ {
		req, _, err := DecodeRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		PutRequest(req)
	}
	allocs := testing.AllocsPerRun(500, func() {
		req, _, err := DecodeRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		PutRequest(req)
	})
	if allocs != 0 {
		t.Errorf("DecodeRequest allocates %.1f/op on the fast path; want 0", allocs)
	}
}

func TestDecodeLargeBatchMatchesReference(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"options":[`)
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"spot":%g,"strike":%g,"expiry":%g}`, 50.0+float64(i)*0.25, 100.0, 0.1+float64(i)*0.01)
	}
	sb.WriteString(`]}`)
	checkDecodeAgainstReference(t, []byte(sb.String()))
}

func TestDecodeNumberEdgeCases(t *testing.T) {
	for _, tok := range []string{
		"0", "-0", "0.5", "-0.5", "1e3", "1E3", "1e+3", "1e-3", "0.25e2",
		"100.", ".5", "-", "1e", "1e+", "01", "+1", "1..2", "NaN", "Infinity",
		"184467440737095516150", "0.1e309",
	} {
		body := []byte(`{"options":[{"spot":` + tok + `,"strike":100,"expiry":1}]}`)
		checkDecodeAgainstReference(t, body)
	}
	for _, tok := range []string{"100", "-1", "0", "1.5", "99999999999999999999", "1e2"} {
		checkDecodeAgainstReference(t, []byte(`{"options":[{"spot":1,"strike":1,"expiry":1}],"deadline_ms":`+tok+`}`))
		checkDecodeAgainstReference(t, []byte(`{"options":[{"spot":1,"strike":1,"expiry":1}],"config":{"seed":`+tok+`}}`))
	}
}

func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"options":[{"spot":100,"strike":105,"expiry":0.5}]}`))
	f.Add([]byte(`{"method":"monte-carlo","options":[{"type":"put","spot":90.5,"strike":100,"expiry":1}],"config":{"mc_paths":4096,"seed":7},"deadline_ms":250}`))
	f.Add([]byte(`{"columnar":{"spot":[100,101],"strike":[105,106],"expiry":[0.5,0.25],"type":"cp","style":"ee"}}`))
	f.Add([]byte(`{"method":"closed-form","method":"x","options":[{"spot":1,"spot":2,"strike":1,"expiry":1}]}`))
	f.Add([]byte(`{"options":[{"spot":1e308,"strike":1e-308,"expiry":5e-324}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Differential invariant: DecodeRequest (fast path or fallback)
		// must agree with the pre-fast-path reference decode on
		// accept/reject, error text, and decoded content.
		refReq, refMethod, refErr := refDecodePrice(data)
		req, method, err := DecodeRequest(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decode err=%v, reference err=%v", err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("error text diverges:\n got: %v\nwant: %v", err, refErr)
			}
			return
		}
		defer PutRequest(req)
		if method != refMethod {
			t.Fatalf("method %v, reference %v", method, refMethod)
		}
		if !sameRequest(req, refReq) {
			t.Fatalf("decoded request diverges:\n got: %+v\nwant: %+v", req, refReq)
		}
		// Accepted requests carry only priceable options.
		n := req.NumOptions()
		if n == 0 || n > MaxRequestOptions {
			t.Fatalf("accepted request with %d options", n)
		}
		for i := 0; i < n; i++ {
			if spot := req.Options[i].Spot; math.IsNaN(spot) || math.IsInf(spot, 0) || spot <= 0 {
				t.Fatalf("accepted non-priceable spot %v", spot)
			}
		}
	})
}
