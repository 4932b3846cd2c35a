package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"finbench/internal/serve/wire"
)

// The hot-path contract: after warm-up, a /price or /greeks request
// allocates nothing on the server side. The harness below reuses the
// request, body reader, and recorder so only the handler's own
// allocations are counted (the old bench harness charged a fresh
// httptest.NewRequest and bytes.Reader per call to the server).

// replayBody is a rewindable io.ReadCloser over a fixed byte slice.
type replayBody struct {
	b []byte
	i int
}

func (r *replayBody) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

func (r *replayBody) Close() error { return nil }
func (r *replayBody) rewind()      { r.i = 0 }

// nullRecorder is a reusable http.ResponseWriter that drops the body.
type nullRecorder struct {
	header http.Header
	code   int
}

func (r *nullRecorder) Header() http.Header         { return r.header }
func (r *nullRecorder) Write(p []byte) (int, error) { return len(p), nil }
func (r *nullRecorder) WriteHeader(c int)           { r.code = c }

// allocsPerRequest drives the handler in-process with a fully reused
// harness and returns the steady-state allocations per request.
func allocsPerRequest(t *testing.T, h http.Handler, path, contentType string, body []byte) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rb := &replayBody{b: body}
	req := httptest.NewRequest(http.MethodPost, path, rb)
	req.Header.Set("Content-Type", contentType)
	rec := &nullRecorder{header: make(http.Header)}
	call := func() {
		rb.rewind()
		rec.code = 0
		h.ServeHTTP(rec, req)
	}
	for i := 0; i < 8; i++ { // warm every pool on the path
		call()
		if rec.code != http.StatusOK {
			t.Fatalf("%s returned status %d during warm-up", path, rec.code)
		}
	}
	return testing.AllocsPerRun(200, call)
}

// onePriceBody returns a single-option closed-form /price body. One
// option keeps the kernel on its serial path (no fork-join dispatch), so
// the measurement isolates the handler's own decode->price->encode work.
func onePriceBody() []byte {
	return []byte(`{"method":"closed-form","options":[{"type":"call","spot":100,"strike":105,"expiry":0.5}]}`)
}

func TestPriceHandlerAllocsSteadyState(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if got := allocsPerRequest(t, s.Handler(), "/price", "application/json", onePriceBody()); got != 0 {
		t.Errorf("/price JSON steady state: %.2f allocs/request, want 0", got)
	}
}

func TestPriceHandlerAllocsColumnarSteadyState(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	frame := wire.AppendColumnarRequest(nil, &wire.PriceRequest{Columnar: &wire.Columns{
		Spots:    []float64{100},
		Strikes:  []float64{105},
		Expiries: []float64{0.5},
	}})
	if got := allocsPerRequest(t, s.Handler(), "/price", wire.ColumnarContentType, frame); got != 0 {
		t.Errorf("/price columnar steady state: %.2f allocs/request, want 0", got)
	}
}

func TestGreeksHandlerAllocsSteadyState(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	body := []byte(`{"options":[{"type":"put","spot":100,"strike":105,"expiry":0.5}]}`)
	if got := allocsPerRequest(t, s.Handler(), "/greeks", "application/json", body); got != 0 {
		t.Errorf("/greeks steady state: %.2f allocs/request, want 0", got)
	}
}

// TestGreeksDeadlineCancelledClient pins the satellite fix: /greeks must
// honor its deadline context. A request arriving with an already-
// cancelled client context answers 408 instead of grinding through the
// whole batch (the old handler never consulted any deadline).
func TestGreeksDeadlineCancelledClient(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/greeks",
		strings.NewReader(`{"options":[{"spot":100,"strike":100,"expiry":1}]}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408; body %s", rec.Code, rec.Body.Bytes())
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("deadline")) {
		t.Errorf("408 body does not mention the deadline: %s", rec.Body.Bytes())
	}
}

func TestGreeksRejectsNegativeDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/greeks", &wire.GreeksRequest{
		DeadlineMS: -5,
		Options:    []wire.Option{{Spot: 100, Strike: 100, Expiry: 1}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("deadline_ms")) {
		t.Errorf("400 body does not name deadline_ms: %s", body)
	}
}

// TestGreeksDeadlineCappedByServerMax proves the deadline admit grants a
// pricing request (/greeks among them) is the client's deadline_ms
// capped by maxDeadline (30s), and maxDeadline when the client gives
// none — also for a deadline_ms whose nanoseconds overflow int64.
func TestGreeksDeadlineCappedByServerMax(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, c := range []struct {
		deadlineMS int64
		want       time.Duration
	}{
		{60000, maxDeadline},
		{0, maxDeadline},
		{1500, 1500 * time.Millisecond},
		{10_000_000_000_000, maxDeadline},
	} {
		req := httptest.NewRequest(http.MethodPost, "/greeks", nil)
		before := time.Now()
		dctx, held := s.admit(httptest.NewRecorder(), req, 1, c.deadlineMS)
		after := time.Now()
		if dctx == nil {
			t.Fatalf("deadline_ms %d: not admitted", c.deadlineMS)
		}
		got, ok := dctx.Deadline()
		s.leave(dctx, held)
		if !ok || got.Before(before.Add(c.want)) || got.After(after.Add(c.want)) {
			t.Errorf("deadline_ms %d: granted deadline %v after admission, want %v",
				c.deadlineMS, got.Sub(before), c.want)
		}
	}
}

// columnarTestContracts is a small mixed call/put batch used by the
// bit-identity tests below.
var columnarTestContracts = struct {
	spots, strikes, expiries []float64
	types                    string
}{
	spots:    []float64{100, 90, 120, 75.5},
	strikes:  []float64{105, 100, 100, 80},
	expiries: []float64{0.5, 1.25, 2, 0.75},
	types:    "cpcp",
}

func columnarAOSRequest() *PriceRequest {
	c := columnarTestContracts
	req := &PriceRequest{}
	for i := range c.spots {
		typ := "call"
		if c.types[i] == 'p' {
			typ = "put"
		}
		req.Options = append(req.Options, wire.Option{
			Type: typ, Spot: c.spots[i], Strike: c.strikes[i], Expiry: c.expiries[i],
		})
	}
	return req
}

func columnarColumns() *wire.Columns {
	c := columnarTestContracts
	return &wire.Columns{
		Spots: c.spots, Strikes: c.strikes, Expiries: c.expiries, Types: c.types,
	}
}

// TestPriceColumnarBitIdenticalToJSON is the core columnar guarantee:
// the same contracts priced through AOS JSON and the binary frame produce
// bit-identical prices. Columns have no JSON form: a JSON body carrying
// them has no options and answers 400.
func TestPriceColumnarBitIdenticalToJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	jsonResp, jsonBody := postJSON(t, ts.URL+"/price", columnarAOSRequest())
	if jsonResp.StatusCode != 200 {
		t.Fatalf("JSON AOS status %d: %s", jsonResp.StatusCode, jsonBody)
	}
	want := decodePrice(t, jsonBody)

	// Columns in a JSON body are not a framing.
	colResp, colBody := postJSON(t, ts.URL+"/price",
		&PriceRequest{Columnar: columnarColumns()})
	if colResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("JSON columnar status %d, want 400: %s", colResp.StatusCode, colBody)
	}

	// Binary frame.
	frame := wire.AppendColumnarRequest(nil, &wire.PriceRequest{Columnar: columnarColumns()})
	resp, err := http.Post(ts.URL+"/price", wire.ColumnarContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("binary columnar status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ColumnarContentType {
		t.Errorf("binary response Content-Type %q, want %q", ct, wire.ColumnarContentType)
	}
	bin, err := wire.DecodeColumnarResponse(raw)
	if err != nil {
		t.Fatalf("decoding binary response: %v", err)
	}
	if bin.Method != want.Method || bin.Engine != want.Engine {
		t.Errorf("binary method/engine %q/%q, want %q/%q",
			bin.Method, bin.Engine, want.Method, want.Engine)
	}
	if len(bin.Results) != len(want.Results) {
		t.Fatalf("binary returned %d results, want %d", len(bin.Results), len(want.Results))
	}
	for i := range want.Results {
		if bin.Results[i].Price != want.Results[i].Price {
			t.Errorf("option %d: binary price %v != JSON price %v",
				i, bin.Results[i].Price, want.Results[i].Price)
		}
	}

	// The columnar request counter saw the binary frame only.
	if n := s.statszSnapshot().Requests["price_columnar"]; n != 1 {
		t.Errorf("price_columnar = %d, want 1", n)
	}
}

func TestPriceColumnarRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postRaw := func(contentType string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/price", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(raw)
	}

	// American exercise in the binary frame: columnar is closed-form only.
	american := wire.AppendColumnarRequest(nil, &wire.PriceRequest{Columnar: &wire.Columns{
		Spots: []float64{100}, Strikes: []float64{105}, Expiries: []float64{1}, Styles: "a",
	}})
	if code, body := postRaw(wire.ColumnarContentType, american); code != 400 {
		t.Errorf("american binary frame: status %d (%s), want 400", code, body)
	}

	// Columns in a JSON body: the key is unknown, so the body has no
	// options.
	for _, body := range []string{
		`{"columnar":{"spot":[100],"strike":[105],"expiry":[1]}}`,
		`{"method":"monte-carlo","columnar":{"spot":[100],"strike":[105],"expiry":[1]}}`,
	} {
		if code, got := postRaw("application/json", []byte(body)); code != 400 || !strings.Contains(got, "request has no options") {
			t.Errorf("%s: status %d (%s), want 400 request has no options", body, code, got)
		}
	}

	// Truncated binary frame (length must match the declared count).
	full := wire.AppendColumnarRequest(nil, &wire.PriceRequest{Columnar: columnarColumns()})
	if code, body := postRaw(wire.ColumnarContentType, full[:len(full)-3]); code != 400 {
		t.Errorf("truncated frame: status %d (%s), want 400", code, body)
	}

	// Binary content type with a JSON body.
	if code, body := postRaw(wire.ColumnarContentType,
		[]byte(`{"options":[{"spot":100,"strike":105,"expiry":1}]}`)); code != 400 {
		t.Errorf("JSON body under binary content type: status %d (%s), want 400", code, body)
	}
}
