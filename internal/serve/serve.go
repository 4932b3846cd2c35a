// Package serve is the concurrent batch-pricing server over the finbench
// library: an HTTP/JSON front end that coalesces small concurrent
// closed-form requests into SOA mega-batches, propagates client deadlines
// into the pricing kernels (cancelled work stops consuming the parallel
// pool at chunk granularity), and sheds load at the door when a bounded
// in-flight work budget is exhausted — its one answer to overload. Every
// 200 response is bit-reproducible from the effective method/config it
// reports.
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

// Config tunes the server. Zero values select the defaults.
type Config struct {
	// Market is the flat market every request prices against.
	Market finbench.Market

	// MaxUnits bounds the in-flight work units (1 unit ~ one closed-form
	// option); default 4M. AdmitWait is the longest a request waits for
	// admission before being shed with 503; default 2ms.
	MaxUnits  int64
	AdmitWait time.Duration

	// CoalesceMaxBatch bounds the coalescer's queue: closed-form requests
	// that arrive while a flush runs merge into one batch behind it (an
	// idle coalescer prices a request at once), flushed early at this many
	// options (default 16384). Requests that large bypass the coalescer.
	CoalesceMaxBatch int

	// MaxOptions bounds options per request (default 262144). MaxPaths
	// caps per-request Monte Carlo paths (default 2^22).
	MaxOptions int
	MaxPaths   int

	// MaxScenarioCells bounds scenario cells (grid points + generator
	// scenarios) per /scenario request; default 16384.
	MaxScenarioCells int

	// MaxDeadline caps client deadlines and bounds requests that supply
	// none; default 30s.
	MaxDeadline time.Duration

	// Stream enables the GET /stream SSE feed with the given hub
	// configuration (nil disables — /stream answers 404). The hub's
	// Market defaults to the server's.
	Stream *stream.Config

	// StreamWriteTimeout bounds one SSE frame write: a subscriber that
	// cannot absorb a frame within it is disconnected so it never holds
	// buffers (or the drain) hostage. Default 2s.
	StreamWriteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	// finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
	if c.Market.Volatility == 0 {
		c.Market = finbench.Market{Rate: 0.02, Volatility: 0.3}
	}
	if c.MaxUnits <= 0 {
		c.MaxUnits = 4 << 20
	}
	if c.AdmitWait <= 0 {
		c.AdmitWait = 2 * time.Millisecond
	}
	if c.CoalesceMaxBatch <= 0 {
		c.CoalesceMaxBatch = 16384
	}
	if c.MaxOptions <= 0 {
		c.MaxOptions = 262144
	}
	if c.MaxPaths <= 0 {
		c.MaxPaths = 1 << 22
	}
	if c.MaxScenarioCells <= 0 {
		c.MaxScenarioCells = 16384
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.StreamWriteTimeout <= 0 {
		c.StreamWriteTimeout = 2 * time.Second
	}
	return c
}

// Server prices option batches over HTTP.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	stats *stats
	adm   *admission
	co    *coalesce.Coalescer
	hub   *stream.Hub // nil when streaming is disabled

	draining atomic.Bool
	// streamActive counts open SSE handlers; Drain waits for it to reach
	// zero (the handlers exit on their own once StartDrain closes the
	// hub's Gone channels).
	streamActive atomic.Int64
}

// New builds a server. Call Close when done (fails whatever is queued in
// the coalescer and stops the streaming hub).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		stats: newStats(),
		adm:   newAdmission(cfg.MaxUnits),
		co:    coalesce.New(cfg.Market, 0, cfg.CoalesceMaxBatch, 0),
	}
	if cfg.Stream != nil {
		hcfg := *cfg.Stream
		// finlint:ignore floateq zero is the untouched-field sentinel, never a computed value
		if hcfg.Market.Volatility == 0 {
			hcfg.Market = cfg.Market
		}
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

// Close releases background resources. The server must not be used after.
func (s *Server) Close() {
	s.co.Close()
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
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		room := cap(b) - len(b)
		if rem := maxBody - len(b); room > rem {
			room = rem
		}
		if room == 0 {
			buf.B = b
			return b, nil
		}
		n, err := r.Body.Read(b[len(b) : len(b)+room])
		b = b[:len(b)+n]
		if err == io.EOF {
			buf.B = b
			return b, nil
		}
		if err != nil {
			buf.B = b
			return b, err
		}
	}
}

func (s *Server) handlePrice(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.stats.priceRequests.Add(1)
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	buf := wire.GetBuffer()
	body, err := readBody(r, buf)
	if err != nil {
		wire.PutBuffer(buf)
		s.writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	// DecodeRequest resolves the method while parsing (satellite of the
	// old decode-then-reparse, which discarded the second parse's error).
	var req *wire.PriceRequest
	var method finbench.Method
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
	if n > s.cfg.MaxOptions {
		wire.PutRequest(req)
		s.writeError(w, http.StatusBadRequest,
			"too many options: "+strconv.Itoa(n)+" > "+strconv.Itoa(s.cfg.MaxOptions))
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
	if cfg.MCPaths > s.cfg.MaxPaths {
		cfg.MCPaths = s.cfg.MaxPaths
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
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.writeError(w, http.StatusRequestTimeout, "pricing deadline exceeded")
		} else {
			s.writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	elapsed := time.Since(start)
	resp.ElapsedUS = elapsed.Microseconds()
	s.stats.observeLatency(method.String(), elapsed)
	if binaryFraming {
		s.writePriceColumnar(w, resp)
	} else {
		s.writePriceOK(w, resp)
	}
	wire.PutPriceResponse(resp)
}

// priceClosedForm prices via the SOA batch engine: small requests go
// through the coalescer, large ones straight to the kernel. Either way
// the engine is LevelAdvanced, so results are bit-identical regardless of
// batching (composition independence).
func (s *Server) priceClosedForm(ctx context.Context, req *PriceRequest, resp *PriceResponse) error {
	n := req.NumOptions()
	resp.Engine = "batch-advanced"
	if n >= s.cfg.CoalesceMaxBatch {
		return s.priceClosedFormBypass(ctx, req, resp)
	}
	t := coalesce.GetTicket(n)
	fillInputs(t.Spots, t.Strikes, t.Expiries, req)
	if d, ok := ctx.Deadline(); ok {
		t.Deadline = d
	}
	if err := s.co.Price(t); err != nil {
		coalesce.PutTicket(t)
		return err
	}
	resp.Coalesced = t.Coalesced
	resp.BatchOptions = t.BatchN
	resp.SizedResults(n)
	for i := 0; i < n; i++ {
		if req.IsPut(i) {
			resp.Results[i].Price = t.Puts[i]
		} else {
			resp.Results[i].Price = t.Calls[i]
		}
	}
	coalesce.PutTicket(t)
	return nil
}

// priceClosedFormBypass prices a request that is already a mega-batch on
// its own, skipping the coalescer. The engine is still LevelAdvanced, so
// results are bit-identical to the coalesced path (composition
// independence).
func (s *Server) priceClosedFormBypass(ctx context.Context, req *PriceRequest, resp *PriceResponse) error {
	n := req.NumOptions()
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
// per-option finbench.PriceCtx. A Monte Carlo request generates its
// normal stream once for all of its options (each is priced as if alone
// on stream (0, seed)); Crank-Nicolson options are solved two at a time,
// two sweeps of each in flight in one loop; the trees are priced option
// by option. These methods are never coalesced, split or retried: Monte
// Carlo is one attempt on one stream, and the lattice kernels gain
// nothing from batching across requests.
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
	s.stats.greeksRequests.Add(1)
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	buf := wire.GetBuffer()
	body, err := readBody(r, buf)
	if err != nil {
		wire.PutBuffer(buf)
		s.writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
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
	if len(req.Options) == 0 || len(req.Options) > s.cfg.MaxOptions {
		wire.PutGreeksRequest(req)
		s.writeError(w, http.StatusBadRequest, "option count out of range")
		return
	}
	// The deadline is checked between options so a huge batch cannot
	// blow past an expired deadline (or a disconnected client).
	dctx, units := s.admit(w, r, int64(len(req.Options)), req.DeadlineMS)
	if dctx == nil {
		wire.PutGreeksRequest(req)
		return
	}
	defer s.leave(dctx, units)

	resp := wire.GetGreeksResponse()
	resp.SizedResults(len(req.Options))
	for i := range req.Options {
		if dctx.Expired() {
			wire.PutGreeksRequest(req)
			wire.PutGreeksResponse(resp)
			s.writeError(w, http.StatusRequestTimeout, "greeks deadline exceeded")
			return
		}
		o := &req.Options[i]
		g, err := finbench.ComputeGreeks(o.ToOption(), s.cfg.Market)
		if err != nil {
			wire.PutGreeksRequest(req)
			wire.PutGreeksResponse(resp)
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
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
	wire.PutGreeksRequest(req)
	elapsed := time.Since(start)
	resp.ElapsedUS = elapsed.Microseconds()
	s.stats.observeLatency("greeks", elapsed)
	s.writeGreeksOK(w, resp)
	wire.PutGreeksResponse(resp)
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
// the request's units within AdmitWait, answers 503 + Retry-After. An
// admitted request gets a deadline context — the client's deadline_ms
// capped by MaxDeadline — and the units it holds; the handler hands both
// back with leave. A nil context means the 503 is already written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, units, deadlineMS int64) (*deadline.Ctx, int64) {
	if s.refuseDraining(w) {
		return nil, 0
	}
	held, ok := s.adm.acquire(units, s.cfg.AdmitWait)
	if !ok {
		s.stats.shedAdmission.Add(1)
		s.writeShed(w, "work budget exhausted")
		return nil, 0
	}
	budget := s.cfg.MaxDeadline
	if deadlineMS > 0 {
		if d := time.Duration(deadlineMS) * time.Millisecond; d < budget {
			budget = d
		}
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
// MaxOptions bounds its width; each cap is 16x the library default.
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

// writePriceOK writes a 200 /price body through the append encoder,
// byte-identical to writeJSON's output without the reflection walk.
func (s *Server) writePriceOK(w http.ResponseWriter, resp *wire.PriceResponse) {
	buf := wire.GetBuffer()
	var ok bool
	buf.B, ok = wire.AppendPriceResponse(buf.B[:0], resp)
	s.writeEncoded(w, buf.B, ok, headerJSON)
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

// writePriceColumnar writes the 200 of a binary-framed columnar request
// as a binary response frame.
func (s *Server) writePriceColumnar(w http.ResponseWriter, resp *wire.PriceResponse) {
	buf := wire.GetBuffer()
	var err error
	buf.B, err = wire.AppendColumnarResponse(buf.B[:0], resp)
	s.writeEncoded(w, buf.B, err == nil, headerColumnar)
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
