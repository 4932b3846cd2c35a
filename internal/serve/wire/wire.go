// Package wire is the serialization layer of the pricing server: the
// request/response types of the /price and /greeks endpoints, an
// allocation-free append-style JSON encoder whose output is byte-identical
// to encoding/json (pinned by golden tests, so cache keys and the
// bit-reproducibility invariant are untouched), a fast JSON request
// decoder that falls back to encoding/json for anything outside its
// subset (so accept/reject behavior is exactly the reference semantics),
// and an opt-in columnar bulk format that carries the SOA layout on the
// wire — length-prefixed arrays of spot/strike/expiry/type/style — so
// mega-batch clients skip AOS→SOA entirely.
//
// Requests, responses, and byte buffers recycle through freelists
// (GetBuffer/PutBuffer, DecodeRequest/PutRequest, ...): the steady-state
// serve hot path must not allocate, and the benchreg servepath rows gate
// allocs/op to keep it that way.
package wire // finlint:hot — the encoder/decoder runs per request; allocation-free loops enforced by internal/lint

import (
	"fmt"
	"math"

	"finbench"
)

// MaxRequestOptions bounds the option count of a single request before any
// server-configured limit applies; it keeps decode memory proportional to
// the request body and gives the fuzzer a hard ceiling.
const MaxRequestOptions = 1 << 20

// Option is one option contract on the wire.
type Option struct {
	// Type is "call" (default) or "put".
	Type string `json:"type,omitempty"`
	// Style is "european" (default) or "american".
	Style  string  `json:"style,omitempty"`
	Spot   float64 `json:"spot"`
	Strike float64 `json:"strike"`
	Expiry float64 `json:"expiry"`
}

// Config mirrors finbench.Config; zero fields mean "default".
type Config struct {
	BinomialSteps int    `json:"binomial_steps,omitempty"`
	GridPoints    int    `json:"grid_points,omitempty"`
	TimeSteps     int    `json:"time_steps,omitempty"`
	MCPaths       int    `json:"mc_paths,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
}

// Columns is the in-memory form of a binary columnar (FBC1) batch: the
// SOA layout as it came off the wire. Types and Styles are per-option
// character columns ('c'/'p' and 'e'/'a'); empty means all calls / all
// European. Closed-form only.
type Columns struct {
	Spots    []float64
	Strikes  []float64
	Expiries []float64
	Types    string
	Styles   string
}

// PriceRequest is the POST /price body.
type PriceRequest struct {
	// Method selects the pricing algorithm by its finbench name:
	// closed-form, binomial-tree, crank-nicolson, monte-carlo,
	// trinomial-tree. Empty means closed-form.
	Method  string   `json:"method,omitempty"`
	Options []Option `json:"options,omitempty"`
	// Columnar carries the batch as SOA columns instead of Options. Only
	// the binary columnar frame (Content-Type
	// application/x-finbench-columnar) fills it; it has no JSON form.
	Columnar *Columns `json:"-"`
	Config   Config   `json:"config,omitempty"`
	// DeadlineMS is the client's pricing deadline in milliseconds; work
	// still running when it expires is cancelled and the request fails
	// with 408. Zero means the server's maximum applies.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// colScratch backs Columnar so decoding a columnar frame reuses
	// column capacity across pooled requests.
	colScratch Columns
}

// NumOptions is the number of options in the request, whichever framing
// carries them.
func (r *PriceRequest) NumOptions() int {
	if r.Columnar != nil {
		return len(r.Columnar.Spots)
	}
	return len(r.Options)
}

// IsPut reports whether option i is a put, under either framing. The
// request must have validated.
func (r *PriceRequest) IsPut(i int) bool {
	if r.Columnar != nil {
		return r.Columnar.Types != "" && r.Columnar.Types[i] == 'p'
	}
	return r.Options[i].Type == "put"
}

// reset clears the request for reuse, retaining slice and column
// capacity.
func (r *PriceRequest) reset() {
	r.Method = ""
	r.Options = r.Options[:0]
	r.Columnar = nil
	r.colScratch.Spots = r.colScratch.Spots[:0]
	r.colScratch.Strikes = r.colScratch.Strikes[:0]
	r.colScratch.Expiries = r.colScratch.Expiries[:0]
	r.colScratch.Types = ""
	r.colScratch.Styles = ""
	r.Config = Config{}
	r.DeadlineMS = 0
}

// Result is one priced option.
type Result struct {
	Price  float64 `json:"price"`
	StdErr float64 `json:"std_err,omitempty"`
}

// PriceResponse is the POST /price 200 body.
type PriceResponse struct {
	Results []Result `json:"results"`
	// Method and Config are the effective method/parameters (defaults
	// resolved, paths capped); recomputing with them reproduces Results
	// bit-for-bit.
	Method string `json:"method"`
	Config Config `json:"config"`
	// Engine is "batch-advanced" (closed-form SOA batch path) or "scalar"
	// (per-option kernels).
	Engine string `json:"engine"`
	// Degraded is never set by this server; the field and its encodings
	// (JSON key, FBC1 flag bit0) stay defined so existing clients decode.
	Degraded bool `json:"degraded,omitempty"`
	// Coalesced reports whether the request was merged with concurrent
	// requests into one mega-batch; BatchOptions is the size of the batch
	// actually priced (>= len(Results) when coalesced).
	Coalesced    bool  `json:"coalesced,omitempty"`
	BatchOptions int   `json:"batch_options,omitempty"`
	ElapsedUS    int64 `json:"elapsed_us"`
}

// GreeksRequest is the POST /greeks body (European closed-form greeks).
type GreeksRequest struct {
	Options []Option `json:"options"`
	// DeadlineMS is the client's deadline in milliseconds, capped by the
	// server's maximum; zero means the maximum applies.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Greeks is one option's sensitivities.
type Greeks struct {
	Delta float64 `json:"delta"`
	Gamma float64 `json:"gamma"`
	Vega  float64 `json:"vega"`
	Theta float64 `json:"theta"`
	Rho   float64 `json:"rho"`
}

// GreeksResponse is the POST /greeks 200 body.
type GreeksResponse struct {
	Results   []Greeks `json:"results"`
	ElapsedUS int64    `json:"elapsed_us"`
}

// NonFiniteError is the 400 message for a valid request whose result
// holds a NaN or ±Inf price or Greek: JSON has no encoding for either,
// and the binary frame refuses them so both framings answer alike.
const NonFiniteError = "result is not finite"

// ErrorResponse is the body of every non-200 status.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ParseMethod maps a wire method name to a finbench.Method. An empty name
// selects the closed form.
func ParseMethod(name string) (finbench.Method, error) {
	switch name {
	case "", "closed-form":
		return finbench.ClosedForm, nil
	case "binomial-tree":
		return finbench.BinomialTree, nil
	case "crank-nicolson":
		return finbench.FiniteDifference, nil
	case "monte-carlo":
		return finbench.MonteCarlo, nil
	case "trinomial-tree":
		return finbench.TrinomialTree, nil
	default:
		return 0, fmt.Errorf("unknown method %q", name)
	}
}

// validatePrice checks a decoded JSON request and resolves its method.
// The messages are the API's contract; the fast and reference decode
// paths share this function so they cannot drift.
func validatePrice(req *PriceRequest) (finbench.Method, error) {
	if len(req.Options) == 0 {
		return 0, fmt.Errorf("request has no options")
	}
	if len(req.Options) > MaxRequestOptions {
		return 0, fmt.Errorf("request has %d options; max %d", len(req.Options), MaxRequestOptions)
	}
	method, err := ParseMethod(req.Method)
	if err != nil {
		return 0, err
	}
	if req.DeadlineMS < 0 {
		return 0, fmt.Errorf("negative deadline_ms %d", req.DeadlineMS)
	}
	if req.Config.BinomialSteps < 0 || req.Config.GridPoints < 0 ||
		req.Config.TimeSteps < 0 || req.Config.MCPaths < 0 {
		return 0, fmt.Errorf("negative config parameter")
	}
	for i := range req.Options {
		o := &req.Options[i]
		if err := validateOption(o); err != nil {
			// finlint:ignore hotalloc cold validation-failure return, not a per-iteration allocation
			return 0, fmt.Errorf("option %d: %w", i, err)
		}
		if o.Style == "american" && (method == finbench.ClosedForm || method == finbench.MonteCarlo) {
			// finlint:ignore hotalloc cold validation-failure return, not a per-iteration allocation
			return 0, fmt.Errorf("option %d: method %v is European-only", i, method)
		}
	}
	return method, nil
}

// validateColumns checks a decoded FBC1 batch: equal column lengths,
// known type/style characters, finite positive values, European only
// (the frame is closed-form by construction; the scalar methods take the
// JSON framing).
func validateColumns(c *Columns) error {
	n := len(c.Spots)
	if n == 0 {
		return fmt.Errorf("request has no options")
	}
	if n > MaxRequestOptions {
		return fmt.Errorf("request has %d options; max %d", n, MaxRequestOptions)
	}
	if len(c.Strikes) != n || len(c.Expiries) != n {
		return fmt.Errorf("columnar column lengths differ: %d spots, %d strikes, %d expiries",
			n, len(c.Strikes), len(c.Expiries))
	}
	if c.Types != "" && len(c.Types) != n {
		return fmt.Errorf("columnar type column has %d entries for %d options", len(c.Types), n)
	}
	if c.Styles != "" && len(c.Styles) != n {
		return fmt.Errorf("columnar style column has %d entries for %d options", len(c.Styles), n)
	}
	for i := 0; i < len(c.Types); i++ {
		if t := c.Types[i]; t != 'c' && t != 'p' {
			// finlint:ignore hotalloc cold validation-failure return, not a per-iteration allocation
			return fmt.Errorf("option %d: unknown option type %q", i, string(t))
		}
	}
	for i := 0; i < len(c.Styles); i++ {
		switch c.Styles[i] {
		case 'e':
		case 'a':
			// finlint:ignore hotalloc cold validation-failure return, not a per-iteration allocation
			return fmt.Errorf("option %d: method %v is European-only", i, finbench.ClosedForm)
		default:
			// finlint:ignore hotalloc cold validation-failure return, not a per-iteration allocation
			return fmt.Errorf("option %d: unknown exercise style %q", i, string(c.Styles[i]))
		}
	}
	for i := 0; i < n; i++ {
		if !finitePositive(c.Spots[i]) || !finitePositive(c.Strikes[i]) || !finitePositive(c.Expiries[i]) {
			// finlint:ignore hotalloc cold validation-failure return, not a per-iteration allocation
			return fmt.Errorf("option %d: spot, strike and expiry must be positive and finite", i)
		}
	}
	return nil
}

func finitePositive(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

func validateOption(o *Option) error {
	switch o.Type {
	case "", "call", "put":
	default:
		return fmt.Errorf("unknown option type %q", o.Type)
	}
	switch o.Style {
	case "", "european", "american":
	default:
		return fmt.Errorf("unknown exercise style %q", o.Style)
	}
	for _, v := range [3]float64{o.Spot, o.Strike, o.Expiry} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite parameter")
		}
	}
	if o.Spot <= 0 || o.Strike <= 0 || o.Expiry <= 0 {
		return fmt.Errorf("spot, strike and expiry must be positive")
	}
	return nil
}

// validateGreeks checks a decoded greeks request. The option-count bounds
// stay with the server (its maxOptions limit owns them).
func validateGreeks(req *GreeksRequest) error {
	if req.DeadlineMS < 0 {
		return fmt.Errorf("negative deadline_ms %d", req.DeadlineMS)
	}
	for i := range req.Options {
		o := &req.Options[i]
		if err := validateOption(o); err != nil {
			// finlint:ignore hotalloc cold validation-failure return, not a per-iteration allocation
			return fmt.Errorf("option %d: %w", i, err)
		}
	}
	return nil
}

// ToOption converts a validated wire option.
func (o *Option) ToOption() finbench.Option {
	var out finbench.Option
	out.Spot = o.Spot
	out.Strike = o.Strike
	out.Expiry = o.Expiry
	if o.Type == "put" {
		out.Type = finbench.Put
	}
	if o.Style == "american" {
		out.Style = finbench.American
	}
	return out
}

// ToConfig converts the wire config (zeros mean defaults, resolved by the
// library).
func (c Config) ToConfig() finbench.Config {
	return finbench.Config{
		BinomialSteps: c.BinomialSteps,
		GridPoints:    c.GridPoints,
		TimeSteps:     c.TimeSteps,
		MCPaths:       c.MCPaths,
		Seed:          c.Seed,
	}
}

// FromConfig converts a resolved library config back to wire form.
func FromConfig(c finbench.Config) Config {
	return Config{
		BinomialSteps: c.BinomialSteps,
		GridPoints:    c.GridPoints,
		TimeSteps:     c.TimeSteps,
		MCPaths:       c.MCPaths,
		Seed:          c.Seed,
	}
}
