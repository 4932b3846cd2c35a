package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"finbench/internal/serve"
	"finbench/internal/serve/wire"
)

// servepath: end-to-end latency and allocation budget of the serving
// tier, measured through the real handler stack (admission control,
// decode, kernel dispatch, encode); one invocation is exactly one
// request. Unlike the kernel experiments, these rows gate allocs/op: a
// new per-request allocation on this path multiplies by the request
// rate, and the snapshot diff rejects it even when the wall-clock cost
// hides inside timing noise.
//
// The harness itself must not allocate per invocation, or its own
// garbage would be charged to the server and mask a regression to (or
// from) the zero-allocation steady state: the request and its body
// reader are built once and rewound between calls.

func init() {
	register(&Experiment{
		ID:          "servepath",
		Title:       "Serving-tier request path (in-process)",
		Units:       "options/s",
		Description: "Requests driven through serve.Server's handler in-process: closed-form /price batches (JSON and binary columnar framing) and /greeks. Rows gate allocs/op in benchreg snapshots.",
		Measure:     measureServePath,
	})
}

// discardRecorder is a reusable http.ResponseWriter that drops the body:
// response bytes are the server's allocations to count, not the
// harness's to retain.
type discardRecorder struct {
	header http.Header
	code   int
}

func (r *discardRecorder) Header() http.Header         { return r.header }
func (r *discardRecorder) Write(p []byte) (int, error) { return len(p), nil }
func (r *discardRecorder) WriteHeader(c int)           { r.code = c }

func (r *discardRecorder) reset() {
	r.code = 0
	for k := range r.header {
		delete(r.header, k)
	}
}

// rewindBody is a reusable request body: a bytes.Reader over a fixed
// payload plus a no-op Close, rewound between handler invocations so
// the same http.Request can be served repeatedly without per-call
// reader construction.
type rewindBody struct {
	bytes.Reader
}

func (b *rewindBody) Close() error { return nil }

func (b *rewindBody) rewind() {
	if _, err := b.Seek(0, io.SeekStart); err != nil {
		panic(err) // bytes.Reader cannot fail an in-range seek
	}
}

// servePathBody builds a deterministic n-option request body for path.
func servePathBody(path string, n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"options":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		// Spot/strike/expiry vary with the index so the batch is not one
		// repeated contract, but stay fixed run to run (no RNG).
		fmt.Fprintf(&b, `{"spot":%g,"strike":%g,"expiry":%g}`,
			90.0+float64(i%21), 80.0+float64(i%41), 0.25+float64(i%8)*0.25)
	}
	b.WriteString(`]`)
	if path == "/price" {
		b.WriteString(`,"method":"closed-form"`)
	}
	b.WriteString(`}`)
	return b.Bytes()
}

// servePathColumnar builds the binary columnar frame for the same
// deterministic n-option batch servePathBody produces.
func servePathColumnar(n int) []byte {
	cols := wire.Columns{
		Spots:    make([]float64, n),
		Strikes:  make([]float64, n),
		Expiries: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		cols.Spots[i] = 90.0 + float64(i%21)
		cols.Strikes[i] = 80.0 + float64(i%41)
		cols.Expiries[i] = 0.25 + float64(i%8)*0.25
	}
	return wire.AppendColumnarRequest(nil, &wire.PriceRequest{Columnar: &cols})
}

func measureServePath(scale float64) (*Result, error) {
	// The rows outlive this call, so the server is not closed: without a
	// stream hub it runs no goroutine and goes with the rows.
	h := serve.New(serve.Config{}).Handler()

	batch := scaleInt(4096, scale, 16)
	r := &Result{
		ID:    "servepath",
		Title: fmt.Sprintf("Serving-tier request path (%d options/request, in-process)", batch),
		Units: "options/s",
	}
	for _, ep := range []struct {
		label, path, contentType string
		body                     []byte
	}{
		{"/price closed-form batch", "/price", "application/json", servePathBody("/price", batch)},
		{"/price closed-form batch (columnar frame)", "/price", wire.ColumnarContentType, servePathColumnar(batch)},
		{"/greeks closed-form batch", "/greeks", "application/json", servePathBody("/greeks", batch)},
	} {
		// Build the request once; rewind its body between invocations so
		// only the server's allocations land in the gated rows.
		body := &rewindBody{}
		body.Reset(ep.body)
		req := httptest.NewRequest(http.MethodPost, ep.path, nil)
		req.Body = body
		req.ContentLength = int64(len(ep.body))
		req.Header.Set("Content-Type", ep.contentType)
		rec := &discardRecorder{header: make(http.Header)}
		call := func() {
			rec.reset()
			body.rewind()
			h.ServeHTTP(rec, req)
		}
		// One untimed probe: a non-200 would otherwise time the error
		// path and gate on its (much smaller) allocation count.
		call()
		if rec.code != http.StatusOK {
			return nil, fmt.Errorf("bench: servepath %s returned status %d", ep.label, rec.code)
		}
		row := hostRow(ep.label, batch, call)
		row.GateAllocs = true
		row.Prov = None
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes,
		"one invocation = one request through the full handler stack (admission, decode, kernel, encode)",
		"allocs/op rows are gated in benchreg snapshots: a new per-request allocation fails the check even inside timing noise",
		"the harness reuses one request and rewinds its body between calls, so gated allocs/op counts are the server's alone")
	return r, nil
}
