package wire

import (
	"encoding/json"
	"strconv"
	"unsafe"

	"finbench"
)

// Fast JSON request decoder. fastDecodePrice/fastDecodeGreeks parse the
// subset of JSON that real pricing clients emit — ASCII strings without
// escapes, unique known keys, integer tokens for integer fields — without
// allocating. Anything outside the subset (escapes, unknown or duplicate
// keys, non-ASCII, floats where ints belong, malformed input) makes the
// fast path bail and the whole body is re-decoded with encoding/json, so
// accept/reject behavior and decoded values are exactly the reference
// semantics. A differential fuzz test pins the equivalence: whenever the
// fast path succeeds, the reference decoder must succeed with the same
// result.

// DecodeRequest parses and validates a /price body and resolves its
// method (the one and only method parse). It is a fuzz entry point: any
// input must either return an error or a request whose options are all
// finite, positive, and within MaxRequestOptions. The returned request is
// pooled: release it with PutRequest. data is not retained.
func DecodeRequest(data []byte) (*PriceRequest, finbench.Method, error) {
	req := priceReqPool.Get().(*PriceRequest)
	req.reset()
	if !fastDecodePrice(data, req) {
		if err := referenceDecodePrice(data, req); err != nil {
			PutRequest(req)
			return nil, 0, err
		}
	}
	method, err := validatePrice(req)
	if err != nil {
		PutRequest(req)
		return nil, 0, err
	}
	return req, method, nil
}

// DecodeGreeksRequest parses and validates a /greeks body. The returned
// request is pooled: release it with PutGreeksRequest. data is not
// retained.
func DecodeGreeksRequest(data []byte) (*GreeksRequest, error) {
	req := greeksReqPool.Get().(*GreeksRequest)
	req.Options = req.Options[:0]
	req.DeadlineMS = 0
	if !fastDecodeGreeks(data, req) {
		req.DeadlineMS = 0
		opts := req.Options[:cap(req.Options)]
		clear(opts)
		req.Options = opts[:0]
		if err := json.Unmarshal(data, req); err != nil {
			PutGreeksRequest(req)
			return nil, err
		}
	}
	if err := validateGreeks(req); err != nil {
		PutGreeksRequest(req)
		return nil, err
	}
	return req, nil
}

// referenceDecodePrice re-decodes data with encoding/json after a fast
// bail. The pooled backing arrays are cleared first: Unmarshal merges
// into existing elements, and stale pooled values must not leak into
// fields the body does not set.
func referenceDecodePrice(data []byte, req *PriceRequest) error {
	req.reset()
	opts := req.Options[:cap(req.Options)]
	clear(opts)
	req.Options = opts[:0]
	return json.Unmarshal(data, req)
}

// scanner walks a JSON byte slice. All methods bail (return false) on
// anything outside the fast subset.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skipWS() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume advances past c if it is the current byte.
func (s *scanner) consume(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// rawString returns the bytes of a string literal without unquoting.
// Escapes, control characters, and non-ASCII bail to the reference
// decoder (which owns escape and UTF-8 coercion semantics).
func (s *scanner) rawString() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	s.i++
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c == '"' {
			out := s.b[start:s.i]
			s.i++
			return out, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// number returns the bytes of a number token, validated against the JSON
// grammar, and whether it is integer-syntax (no fraction or exponent).
func (s *scanner) number() (tok []byte, isInt bool, ok bool) {
	b := s.b
	start := s.i
	i := s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return nil, false, false
	}
	isInt = true
	if i < len(b) && b[i] == '.' {
		isInt = false
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		isInt = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	s.i = i
	return b[start:i], isInt, true
}

// bts views b as a string without copying. The view must not outlive the
// call it is passed to (the underlying buffer is pooled).
func bts(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// parseFloatTok parses a grammar-validated number token. A range error
// (1e999) bails to the reference decoder for its exact error.
func parseFloatTok(tok []byte) (float64, bool) {
	f, err := strconv.ParseFloat(bts(tok), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// parseIntTok parses an integer-syntax token into an int64. Tokens beyond
// 18 digits bail (they may overflow; the reference decoder owns the error
// text).
func parseIntTok(tok []byte) (int64, bool) {
	neg := false
	digits := tok
	if len(digits) > 0 && digits[0] == '-' {
		neg = true
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range digits {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// parseUintTok parses a non-negative integer token into a uint64; ≤19
// digits always fit.
func parseUintTok(tok []byte) (uint64, bool) {
	if len(tok) == 0 || tok[0] == '-' || len(tok) > 19 {
		return 0, false
	}
	var v uint64
	for _, c := range tok {
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// Canonical key and value tokens. Matching raw bytes against these and
// assigning the constant keeps decoded strings allocation-free.
var (
	keyMethod   = []byte("method")
	keyOptions  = []byte("options")
	keyConfig   = []byte("config")
	keyDeadline = []byte("deadline_ms")

	keyType   = []byte("type")
	keyStyle  = []byte("style")
	keySpot   = []byte("spot")
	keyStrike = []byte("strike")
	keyExpiry = []byte("expiry")

	keyBinomialSteps = []byte("binomial_steps")
	keyGridPoints    = []byte("grid_points")
	keyTimeSteps     = []byte("time_steps")
	keyMCPaths       = []byte("mc_paths")
	keySeed          = []byte("seed")
)

func bytesEqual(a []byte, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// canonString maps a raw ASCII token onto one of the canonical values,
// falling back to an allocated copy (only reachable for values that then
// fail validation with the same message the reference path produces).
func canonString(raw []byte, canon ...string) string {
	s := bts(raw)
	for _, c := range canon {
		if s == c {
			return c
		}
	}
	return string(raw)
}

var methodNames = []string{"", "closed-form", "binomial-tree", "crank-nicolson", "monte-carlo", "trinomial-tree"}
var typeNames = []string{"", "call", "put"}
var styleNames = []string{"", "european", "american"}

// fastDecodePrice is the allocation-free decode attempt. req must be
// reset. Returns false to bail to the reference decoder.
func fastDecodePrice(data []byte, req *PriceRequest) bool {
	s := scanner{b: data}
	s.skipWS()
	if !s.consume('{') {
		return false
	}
	const (
		seenMethod = 1 << iota
		seenOptions
		seenConfig
		seenDeadline
	)
	var seen uint8
	s.skipWS()
	if !s.consume('}') {
		for {
			s.skipWS()
			key, ok := s.rawString()
			if !ok {
				return false
			}
			s.skipWS()
			if !s.consume(':') {
				return false
			}
			s.skipWS()
			switch {
			case bytesEqual(key, keyMethod):
				if seen&seenMethod != 0 {
					return false
				}
				seen |= seenMethod
				raw, ok := s.rawString()
				if !ok {
					return false
				}
				req.Method = canonString(raw, methodNames...)
			case bytesEqual(key, keyOptions):
				if seen&seenOptions != 0 {
					return false
				}
				seen |= seenOptions
				if !s.parseOptions(&req.Options) {
					return false
				}
			case bytesEqual(key, keyConfig):
				if seen&seenConfig != 0 {
					return false
				}
				seen |= seenConfig
				if !s.parseConfig(&req.Config) {
					return false
				}
			case bytesEqual(key, keyDeadline):
				if seen&seenDeadline != 0 {
					return false
				}
				seen |= seenDeadline
				tok, isInt, ok := s.number()
				if !ok || !isInt {
					return false
				}
				v, ok := parseIntTok(tok)
				if !ok {
					return false
				}
				req.DeadlineMS = v
			default:
				// Unknown key: the reference decoder ignores it; let it.
				return false
			}
			s.skipWS()
			if s.consume(',') {
				continue
			}
			if s.consume('}') {
				break
			}
			return false
		}
	}
	s.skipWS()
	return s.i == len(s.b)
}

// fastDecodeGreeks mirrors fastDecodePrice for the /greeks body.
func fastDecodeGreeks(data []byte, req *GreeksRequest) bool {
	s := scanner{b: data}
	s.skipWS()
	if !s.consume('{') {
		return false
	}
	const (
		seenOptions = 1 << iota
		seenDeadline
	)
	var seen uint8
	s.skipWS()
	if !s.consume('}') {
		for {
			s.skipWS()
			key, ok := s.rawString()
			if !ok {
				return false
			}
			s.skipWS()
			if !s.consume(':') {
				return false
			}
			s.skipWS()
			switch {
			case bytesEqual(key, keyOptions):
				if seen&seenOptions != 0 {
					return false
				}
				seen |= seenOptions
				if !s.parseOptions(&req.Options) {
					return false
				}
			case bytesEqual(key, keyDeadline):
				if seen&seenDeadline != 0 {
					return false
				}
				seen |= seenDeadline
				tok, isInt, ok := s.number()
				if !ok || !isInt {
					return false
				}
				v, ok := parseIntTok(tok)
				if !ok {
					return false
				}
				req.DeadlineMS = v
			default:
				return false
			}
			s.skipWS()
			if s.consume(',') {
				continue
			}
			if s.consume('}') {
				break
			}
			return false
		}
	}
	s.skipWS()
	return s.i == len(s.b)
}

// parseOptions parses the options array into *dst, reusing capacity.
func (s *scanner) parseOptions(dst *[]Option) bool {
	if !s.consume('[') {
		return false
	}
	opts := (*dst)[:0]
	s.skipWS()
	if s.consume(']') {
		*dst = opts
		return true
	}
	for {
		s.skipWS()
		// finlint:ignore hotalloc append into the pooled backing array; amortized zero-alloc in steady state
		opts = append(opts, Option{})
		if !s.parseOption(&opts[len(opts)-1]) {
			*dst = opts
			return false
		}
		s.skipWS()
		if s.consume(',') {
			continue
		}
		if s.consume(']') {
			*dst = opts
			return true
		}
		*dst = opts
		return false
	}
}

// parseOption parses one option object. Duplicate keys are scalar
// last-wins, matching the reference decoder, so no bail is needed.
func (s *scanner) parseOption(o *Option) bool {
	if !s.consume('{') {
		return false
	}
	s.skipWS()
	if s.consume('}') {
		return true
	}
	for {
		s.skipWS()
		key, ok := s.rawString()
		if !ok {
			return false
		}
		s.skipWS()
		if !s.consume(':') {
			return false
		}
		s.skipWS()
		switch {
		case bytesEqual(key, keyType):
			raw, ok := s.rawString()
			if !ok {
				return false
			}
			o.Type = canonString(raw, typeNames...)
		case bytesEqual(key, keyStyle):
			raw, ok := s.rawString()
			if !ok {
				return false
			}
			o.Style = canonString(raw, styleNames...)
		case bytesEqual(key, keySpot):
			if !s.parseFloatInto(&o.Spot) {
				return false
			}
		case bytesEqual(key, keyStrike):
			if !s.parseFloatInto(&o.Strike) {
				return false
			}
		case bytesEqual(key, keyExpiry):
			if !s.parseFloatInto(&o.Expiry) {
				return false
			}
		default:
			return false
		}
		s.skipWS()
		if s.consume(',') {
			continue
		}
		if s.consume('}') {
			return true
		}
		return false
	}
}

func (s *scanner) parseFloatInto(dst *float64) bool {
	tok, _, ok := s.number()
	if !ok {
		return false
	}
	f, ok := parseFloatTok(tok)
	if !ok {
		return false
	}
	*dst = f
	return true
}

// parseConfig parses the config object (integer tokens only; a float
// where an int belongs is a reference-decoder error).
func (s *scanner) parseConfig(c *Config) bool {
	if !s.consume('{') {
		return false
	}
	s.skipWS()
	if s.consume('}') {
		return true
	}
	for {
		s.skipWS()
		key, ok := s.rawString()
		if !ok {
			return false
		}
		s.skipWS()
		if !s.consume(':') {
			return false
		}
		s.skipWS()
		tok, isInt, ok := s.number()
		if !ok || !isInt {
			return false
		}
		switch {
		case bytesEqual(key, keySeed):
			v, ok := parseUintTok(tok)
			if !ok {
				return false
			}
			c.Seed = v
		default:
			v, ok := parseIntTok(tok)
			if !ok {
				return false
			}
			switch {
			case bytesEqual(key, keyBinomialSteps):
				c.BinomialSteps = int(v)
			case bytesEqual(key, keyGridPoints):
				c.GridPoints = int(v)
			case bytesEqual(key, keyTimeSteps):
				c.TimeSteps = int(v)
			case bytesEqual(key, keyMCPaths):
				c.MCPaths = int(v)
			default:
				return false
			}
		}
		s.skipWS()
		if s.consume(',') {
			continue
		}
		if s.consume('}') {
			return true
		}
		return false
	}
}
