// Package serve is the concurrent batch-pricing server over the finbench
// library: an HTTP/JSON front end that prices each closed-form request
// alone as one SOA batch on its own goroutine, propagates client
// deadlines into the pricing kernels (cancelled work stops consuming the
// parallel pool at chunk granularity), and sheds load at the door when a
// bounded in-flight work budget is exhausted — its one answer to
// overload. Every 200 response is bit-reproducible from the effective
// method/config it reports.
//
// Endpoints: POST /price, POST /greeks, POST /scenario, GET /stream
// (SSE, when a streaming hub is configured), GET /statsz, GET /healthz.
// Status codes: 400 malformed (or a result that is not finite, which no
// framing carries), 404/405 routing, 408 deadline exceeded, 503 shed or
// draining (with Retry-After).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"finbench"
	"finbench/internal/serve/coalesce"
	"finbench/internal/serve/deadline"
	"finbench/internal/serve/stream"
	"finbench/internal/serve/wire"
)

// The server's limits: maxUnits in-flight work units (1 unit ~ one
// closed-form option), shared by every admitted request; admitWait, the
// longest a request waits for admission before it is shed with 503;
// maxOptions options per request; maxPaths Monte Carlo paths per request
// (more are clamped); maxScenarioCells cells (grid points + generator
// scenarios) per /scenario request; maxDeadline, the cap on a client
// deadline and the bound of a request that supplies none. The SSE frame
// write timeout is stream.WriteTimeout, shared with the router.
const (
	maxUnits         = 4 << 20
	admitWait        = 2 * time.Millisecond
	maxOptions       = 262144
	maxPaths         = 1 << 22
	maxScenarioCells = 16384
	maxDeadline      = 30 * time.Second
)

// Config tunes the server. Zero values select the defaults.
type Config struct {
	// Market is the flat market every request prices against (default
	// rate 0.02, volatility 0.3; a Market with only its rate set takes
	// the default volatility and keeps its rate).
	Market finbench.Market

	// Stream enables the GET /stream SSE feed with the given hub
	// configuration (nil disables — /stream answers 404). The hub's
	// Market defaults to the server's.
	Stream *stream.Config
}

// withMarketDefaults fills the unset fields of m from def. Zero marks a
// field unset, but a zero rate is also a rate: an all-zero Market takes
// def whole, and a Market with only its volatility unset takes def's
// volatility and keeps its rate.
func withMarketDefaults(m, def finbench.Market) finbench.Market {
	// finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
	if m.Volatility == 0 {
		// finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		if m.Rate == 0 {
			return def
		}
		m.Volatility = def.Volatility
	}
	return m
}

func (c Config) withDefaults() Config {
	c.Market = withMarketDefaults(c.Market, finbench.Market{Rate: 0.02, Volatility: 0.3})
	return c
}

// Server prices option batches over HTTP.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	stats *stats
	adm   *admission
	hub   *stream.Hub // nil when streaming is disabled

	draining atomic.Bool
	// streamActive counts open SSE handlers; Drain waits for it to reach
	// zero (the handlers exit on their own once StartDrain closes the
	// hub's Gone channels).
	streamActive atomic.Int64
}

// New builds a server. Call Close when done (it stops the streaming hub).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		stats: newStats(),
		adm:   newAdmission(maxUnits),
	}
	if cfg.Stream != nil {
		hcfg := *cfg.Stream
		hcfg.Market = withMarketDefaults(hcfg.Market, cfg.Market)
		s.hub = stream.New(hcfg, nil)
		s.hub.Start()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/price", s.handlePrice)
	mux.HandleFunc("/greeks", s.handleGreeks)
	mux.HandleFunc("/scenario", s.handleScenario)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler (a 404-counting wrapper around the
// mux).
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/price", "/greeks", "/scenario", "/stream", "/statsz", "/healthz":
		s.mux.ServeHTTP(w, r)
	default:
		s.writeError(w, http.StatusNotFound, "no such endpoint")
	}
}

// StartDrain flips the server into draining mode without waiting: new
// requests are answered with a fast 503 + Retry-After (so a router fails
// them over to a live replica instead of seeing the listener close under
// it) and /healthz reports "draining" for health checkers. Call Drain
// afterwards to wait for in-flight work.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	if s.hub != nil {
		// Shut the hub down NOW, not at Close: closing every subscriber's
		// Gone channel is what makes the open SSE handlers send goodbye
		// and return, which is what lets http.Server.Shutdown (which waits
		// for open connections) complete inside the drain window.
		s.hub.Shutdown()
	}
}

// Drain puts the server into draining mode (new work is refused with
// 503) and waits until in-flight work reaches zero or ctx expires.
// Returns nil when fully drained.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.adm.inFlight() == 0 && s.streamActive.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close stops the streaming hub, the server's one background resource.
// The server must not be used after.
func (s *Server) Close() {
	if s.hub != nil {
		s.hub.Close()
	}
}

// maxBody bounds request bodies (an option is ~90 JSON bytes; 64MB covers
// the largest permitted batch with slack).
const maxBody = 64 << 20

// readBody reads the request body into a pooled buffer with the same
// semantics as io.ReadAll(io.LimitReader(r.Body, maxBody)): bytes beyond
// maxBody are silently dropped (the truncated body then fails decode).
func readBody(r *http.Request, buf *wire.Buffer) ([]byte, error) {
	b := buf.B[:0]
	var err error
	for len(b) < maxBody && err == nil {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var n int
		n, err = r.Body.Read(b[len(b):min(cap(b), maxBody)])
		b = b[:len(b)+n]
	}
	buf.B = b
	if err == io.EOF {
		err = nil
	}
	return b, err
}

// front is where every POST handler starts: it counts the request on
// requests, answers any other method 405, and reads the body into a
// pooled buffer, which the caller returns with wire.PutBuffer once the
// body is decoded. On false the error is written and nothing is held.
func (s *Server) front(w http.ResponseWriter, r *http.Request, requests *atomic.Uint64) (*wire.Buffer, []byte, bool) {
	requests.Add(1)
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return nil, nil, false
	}
	buf := wire.GetBuffer()
	body, err := readBody(r, buf)
	if err != nil {
		wire.PutBuffer(buf)
		s.writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return nil, nil, false
	}
	return buf, body, true
}

// writePricingError answers a request whose pricing failed: its deadline
// passing or its client leaving (the context's error) is 408 with
// timeoutMsg; any other error is the request's fault, 400 with its text.
func (s *Server) writePricingError(w http.ResponseWriter, err error, timeoutMsg string) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.writeError(w, http.StatusRequestTimeout, timeoutMsg)
		return
	}
	s.writeError(w, http.StatusBadRequest, err.Error())
}

func (s *Server) handlePrice(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	buf, body, ok := s.front(w, r, &s.stats.priceRequests)
	if !ok {
		return
	}
	// wire.DecodeRequest resolves the method while parsing, so the body is
	// parsed once and every parse error reaches the client.
	var req *wire.PriceRequest
	var method finbench.Method
	var err error
	binaryFraming := r.Header.Get("Content-Type") == wire.ColumnarContentType
	if binaryFraming {
		req, method, err = wire.DecodeColumnarRequest(body)
	} else {
		req, method, err = wire.DecodeRequest(body)
	}
	wire.PutBuffer(buf)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if binaryFraming {
		s.stats.columnarRequests.Add(1)
	}
	n := req.NumOptions()
	if n > maxOptions {
		wire.PutRequest(req)
		s.writeError(w, http.StatusBadRequest,
			"too many options: "+strconv.Itoa(n)+" > "+strconv.Itoa(maxOptions))
		return
	}
	if msg := latticeTooLarge(req.Config); msg != "" {
		wire.PutRequest(req)
		s.writeError(w, http.StatusBadRequest, msg)
		return
	}

	// Resolve the effective numeric parameters: defaults, then the path
	// cap. The response reports exactly these.
	cfg := req.Config.ToConfig()
	if cfg.MCPaths > maxPaths {
		cfg.MCPaths = maxPaths
	}
	cfg = cfg.Resolved()

	dctx, units := s.admit(w, r, unitCost(method, cfg, n), req.DeadlineMS)
	if dctx == nil {
		wire.PutRequest(req)
		return
	}
	defer s.leave(dctx, units)

	resp := wire.GetPriceResponse()
	resp.Method = method.String()
	resp.Config = wire.FromConfig(cfg)
	if method == finbench.ClosedForm {
		err = s.priceClosedForm(dctx, req, resp)
	} else {
		err = s.priceHeavy(dctx, req, method, cfg, resp)
	}
	wire.PutRequest(req)
	if err != nil {
		wire.PutPriceResponse(resp)
		s.writePricingError(w, err, "pricing deadline exceeded")
		return
	}
	elapsed := time.Since(start)
	resp.ElapsedUS = elapsed.Microseconds()
	s.stats.observeLatency(method.String(), elapsed)
	s.writePriceOK(w, resp, binaryFraming)
	wire.PutPriceResponse(resp)
}

// priceClosedForm prices the request alone as one SOA batch through the
// LevelAdvanced engine, under the request's own deadline context: the
// kernel checks it between chunks, so an expired or abandoned request
// stops there and answers 408. The engine is elementwise, so each price
// is bit-identical to pricing its option on its own.
func (s *Server) priceClosedForm(ctx context.Context, req *PriceRequest, resp *PriceResponse) error {
	n := req.NumOptions()
	resp.Engine = "batch-advanced"
	b := coalesce.GetBatch(n)
	fillInputs(b.Spots, b.Strikes, b.Expiries, req)
	if err := finbench.PriceBatchCtx(ctx, b, s.cfg.Market, finbench.LevelAdvanced); err != nil {
		coalesce.PutBatch(b)
		return err
	}
	resp.BatchOptions = n
	resp.SizedResults(n)
	for i := 0; i < n; i++ {
		if req.IsPut(i) {
			resp.Results[i].Price = b.Puts[i]
		} else {
			resp.Results[i].Price = b.Calls[i]
		}
	}
	coalesce.PutBatch(b)
	return nil
}

// fillInputs copies the request's contracts into SOA input columns,
// whichever framing carries them.
func fillInputs(spots, strikes, expiries []float64, req *PriceRequest) {
	if c := req.Columnar; c != nil {
		copy(spots, c.Spots)
		copy(strikes, c.Strikes)
		copy(expiries, c.Expiries)
		return
	}
	for i := range req.Options {
		spots[i] = req.Options[i].Spot
		strikes[i] = req.Options[i].Strike
		expiries[i] = req.Options[i].Expiry
	}
}

// priceHeavy prices the request's options through finbench.PriceRequestCtx,
// the cancellable host kernels: every result is bit-identical to a
// per-option finbench.PriceCtx. A Monte Carlo request prices all of its
// options over one normal stream (each as if alone on stream (0, seed)),
// read from the process-wide store of streams when an earlier request
// with the same seed drew at least as many paths, and otherwise drawn
// and stored for the next; the store holds inputs, never responses.
// Crank-Nicolson puts are solved one after another, each time step by
// the direct projected solve of Brennan & Schwartz, whose elimination
// coefficients are computed once per request; the trees are priced
// option by option. These methods are never split or retried: Monte
// Carlo is one attempt on one stream.
func (s *Server) priceHeavy(ctx context.Context, req *PriceRequest, method finbench.Method, cfg finbench.Config, resp *PriceResponse) error {
	resp.Engine = "scalar"
	opts := make([]finbench.Option, len(req.Options))
	for i := range opts {
		opts[i] = req.Options[i].ToOption()
	}
	res, err := finbench.PriceRequestCtx(ctx, opts, s.cfg.Market, method, &cfg)
	if err != nil {
		return err
	}
	resp.SizedResults(len(res))
	for i := range res {
		resp.Results[i].Price = res[i].Price
		resp.Results[i].StdErr = res[i].StdErr
	}
	return nil
}

func (s *Server) handleGreeks(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	buf, body, ok := s.front(w, r, &s.stats.greeksRequests)
	if !ok {
		return
	}
	// DecodeGreeksRequest validates options and rejects negative
	// deadline_ms, matching /price.
	req, err := wire.DecodeGreeksRequest(body)
	wire.PutBuffer(buf)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Options) == 0 || len(req.Options) > maxOptions {
		wire.PutGreeksRequest(req)
		s.writeError(w, http.StatusBadRequest, "option count out of range")
		return
	}
	dctx, units := s.admit(w, r, int64(len(req.Options)), req.DeadlineMS)
	if dctx == nil {
		wire.PutGreeksRequest(req)
		return
	}
	defer s.leave(dctx, units)

	resp := wire.GetGreeksResponse()
	err = s.greeks(dctx, req, resp)
	wire.PutGreeksRequest(req)
	if err != nil {
		wire.PutGreeksResponse(resp)
		s.writePricingError(w, err, "greeks deadline exceeded")
		return
	}
	elapsed := time.Since(start)
	resp.ElapsedUS = elapsed.Microseconds()
	s.stats.observeLatency("greeks", elapsed)
	s.writeGreeksOK(w, resp)
	wire.PutGreeksResponse(resp)
}

// greeks fills resp with each option's closed-form Greeks. The deadline
// is checked between options, so a huge batch cannot blow past an
// expired deadline (or a disconnected client).
func (s *Server) greeks(dctx *deadline.Ctx, req *wire.GreeksRequest, resp *wire.GreeksResponse) error {
	resp.SizedResults(len(req.Options))
	for i := range req.Options {
		if dctx.Expired() {
			return context.DeadlineExceeded
		}
		o := &req.Options[i]
		g, err := finbench.ComputeGreeks(o.ToOption(), s.cfg.Market)
		if err != nil {
			return err
		}
		if o.Type == "put" {
			resp.Results[i].Delta = g.DeltaPut
			resp.Results[i].Theta = g.ThetaPut
			resp.Results[i].Rho = g.RhoPut
		} else {
			resp.Results[i].Delta = g.DeltaCall
			resp.Results[i].Theta = g.ThetaCall
			resp.Results[i].Rho = g.RhoCall
		}
		resp.Results[i].Gamma = g.Gamma
		resp.Results[i].Vega = g.Vega
	}
	return nil
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	snap := s.statszSnapshot()
	s.writeJSON(w, http.StatusOK, &snap)
}

// handleHealthz reports liveness plus the load signals a router needs to
// score this replica: in-flight work units, admission-queue depth, and the
// draining bit. Draining answers 503 with Retry-After so a router fails
// the request over instead of treating the replica as crashed.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthResponse{
		Status:        "ok",
		InFlightUnits: s.adm.inFlight(),
		MaxUnits:      s.adm.max,
		QueueDepth:    int64(s.adm.queued()),
		UptimeS:       time.Since(s.stats.start).Seconds(),
	}
	if s.draining.Load() {
		h.Status = "draining"
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, &h)
		return
	}
	s.writeJSON(w, http.StatusOK, &h)
}

// admit is the one door of the POST pricing handlers, passed once the
// body has decoded: a draining server, or a work budget that cannot take
// the request's units within admitWait, answers 503 + Retry-After. An
// admitted request gets a deadline context — the client's deadline_ms
// capped by maxDeadline — and the units it holds; the handler hands both
// back with leave. A nil context means the 503 is already written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, units, deadlineMS int64) (*deadline.Ctx, int64) {
	if s.refuseDraining(w) {
		return nil, 0
	}
	held, ok := s.adm.acquire(units, admitWait)
	if !ok {
		s.stats.shedAdmission.Add(1)
		s.writeShed(w, "work budget exhausted")
		return nil, 0
	}
	// Compared in milliseconds before converting: a deadline_ms past
	// what a Duration holds would wrap negative as a product.
	budget := maxDeadline
	if deadlineMS > 0 && deadlineMS < maxDeadline.Milliseconds() {
		budget = time.Duration(deadlineMS) * time.Millisecond
	}
	return deadline.Acquire(r.Context(), time.Now().Add(budget)), held
}

// leave releases what admit granted.
func (s *Server) leave(dctx *deadline.Ctx, units int64) {
	dctx.Release()
	s.adm.release(units)
}

// refuseDraining answers 503 + Retry-After when the server is draining.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	s.stats.shedDrain.Add(1)
	s.writeShed(w, "server is draining")
	return true
}

// Lattice sizes bound one /price request's memory and time the way
// maxOptions bounds its width; each cap is 16x the library default.
const (
	maxBinomialSteps = 16384
	maxGridPoints    = 4096
	maxTimeSteps     = 16384
)

// latticeTooLarge names the first lattice size above its cap, or returns
// "" when every size is within bounds.
func latticeTooLarge(c wire.Config) string {
	switch {
	case c.BinomialSteps > maxBinomialSteps:
		return "binomial_steps too large: " + strconv.Itoa(c.BinomialSteps) + " > " + strconv.Itoa(maxBinomialSteps)
	case c.GridPoints > maxGridPoints:
		return "grid_points too large: " + strconv.Itoa(c.GridPoints) + " > " + strconv.Itoa(maxGridPoints)
	case c.TimeSteps > maxTimeSteps:
		return "time_steps too large: " + strconv.Itoa(c.TimeSteps) + " > " + strconv.Itoa(maxTimeSteps)
	}
	return ""
}

// headerJSON and headerColumnar are preassigned Content-Type values: a
// direct map assignment of a shared slice skips the per-request []string
// allocation of Header().Set. net/http never mutates header value slices.
var (
	headerJSON     = []string{"application/json"}
	headerColumnar = []string{wire.ColumnarContentType}
)

// writeJSON encodes v before it writes the status. encoding/json refuses
// only non-finite floats in these bodies, and such a value answers 400,
// never a 200 with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, wire.NonFiniteError)
		return
	}
	w.Header()["Content-Type"] = headerJSON
	w.WriteHeader(code)
	s.stats.countCode(code)
	_, _ = w.Write(append(b, '\n'))
}

// writePriceOK writes a 200 /price body through the append encoder of
// the request's framing: JSON byte-identical to writeJSON's output
// without the reflection walk or, for a binary-framed columnar request, a
// binary response frame.
func (s *Server) writePriceOK(w http.ResponseWriter, resp *wire.PriceResponse, columnar bool) {
	buf := wire.GetBuffer()
	if columnar {
		var err error
		buf.B, err = wire.AppendColumnarResponse(buf.B[:0], resp)
		s.writeEncoded(w, buf.B, err == nil, headerColumnar)
	} else {
		var ok bool
		buf.B, ok = wire.AppendPriceResponse(buf.B[:0], resp)
		s.writeEncoded(w, buf.B, ok, headerJSON)
	}
	wire.PutBuffer(buf)
}

// writeGreeksOK is writePriceOK for /greeks.
func (s *Server) writeGreeksOK(w http.ResponseWriter, resp *wire.GreeksResponse) {
	buf := wire.GetBuffer()
	var ok bool
	buf.B, ok = wire.AppendGreeksResponse(buf.B[:0], resp)
	s.writeEncoded(w, buf.B, ok, headerJSON)
	wire.PutBuffer(buf)
}

// writeEncoded writes the encoded body b as a 200 of content type ctype.
// A result that did not encode (ok false: a NaN or ±Inf price or Greek)
// answers 400 instead; the status is chosen only once the body exists.
func (s *Server) writeEncoded(w http.ResponseWriter, b []byte, ok bool, ctype []string) {
	if !ok {
		s.writeError(w, http.StatusBadRequest, wire.NonFiniteError)
		return
	}
	w.Header()["Content-Type"] = ctype
	w.WriteHeader(http.StatusOK)
	s.stats.countCode(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	var e ErrorResponse
	e.Error = msg
	s.writeJSON(w, code, &e)
}

// writeShed is a 503 with Retry-After, the standard "come back later".
func (s *Server) writeShed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	s.writeError(w, http.StatusServiceUnavailable, msg)
}
