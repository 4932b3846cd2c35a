package wire

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Append-style JSON encoder for the 200 bodies of /price and /greeks.
// The output is byte-identical to encoding/json's Encoder (HTML-escaped
// strings, the float formatting quirks, the trailing newline) — pinned by
// golden tests — so the response cache's stored bytes, the
// bit-reproducibility contract, and every existing client parse are
// untouched; only the reflection walk and its allocations are gone.

// AppendPriceResponse appends r encoded exactly as
// json.NewEncoder(w).Encode(r) would, returning ok=false (with dst
// unmodified beyond its original length) when a value is outside JSON's
// domain (NaN/Inf), where encoding/json fails too.
func AppendPriceResponse(dst []byte, r *PriceResponse) ([]byte, bool) {
	b := append(dst, `{"results":[`...)
	var ok bool
	for i := range r.Results {
		res := &r.Results[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"price":`...)
		if b, ok = appendJSONFloat(b, res.Price); !ok {
			return dst, false
		}
		// finlint:ignore floateq omitempty semantics: encoding/json omits exact zero
		if res.StdErr != 0 {
			b = append(b, `,"std_err":`...)
			if b, ok = appendJSONFloat(b, res.StdErr); !ok {
				return dst, false
			}
		}
		b = append(b, '}')
	}
	b = append(b, `],"method":`...)
	b = appendJSONString(b, r.Method)
	b = append(b, `,"config":`...)
	b = appendConfig(b, &r.Config)
	b = append(b, `,"engine":`...)
	b = appendJSONString(b, r.Engine)
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if r.BatchOptions != 0 {
		b = append(b, `,"batch_options":`...)
		b = strconv.AppendInt(b, int64(r.BatchOptions), 10)
	}
	b = append(b, `,"elapsed_us":`...)
	b = strconv.AppendInt(b, r.ElapsedUS, 10)
	return append(b, '}', '\n'), true
}

// AppendGreeksResponse appends r exactly as encoding/json would.
func AppendGreeksResponse(dst []byte, r *GreeksResponse) ([]byte, bool) {
	b := append(dst, `{"results":[`...)
	var ok bool
	for i := range r.Results {
		g := &r.Results[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"delta":`...)
		if b, ok = appendJSONFloat(b, g.Delta); !ok {
			return dst, false
		}
		b = append(b, `,"gamma":`...)
		if b, ok = appendJSONFloat(b, g.Gamma); !ok {
			return dst, false
		}
		b = append(b, `,"vega":`...)
		if b, ok = appendJSONFloat(b, g.Vega); !ok {
			return dst, false
		}
		b = append(b, `,"theta":`...)
		if b, ok = appendJSONFloat(b, g.Theta); !ok {
			return dst, false
		}
		b = append(b, `,"rho":`...)
		if b, ok = appendJSONFloat(b, g.Rho); !ok {
			return dst, false
		}
		b = append(b, '}')
	}
	b = append(b, `],"elapsed_us":`...)
	b = strconv.AppendInt(b, r.ElapsedUS, 10)
	return append(b, '}', '\n'), true
}

// appendConfig appends the config object with encoding/json's omitempty
// semantics: zero fields vanish, an all-zero config is "{}".
func appendConfig(b []byte, c *Config) []byte {
	b = append(b, '{')
	n := len(b)
	if c.BinomialSteps != 0 {
		b = append(b, `"binomial_steps":`...)
		b = strconv.AppendInt(b, int64(c.BinomialSteps), 10)
	}
	if c.GridPoints != 0 {
		if len(b) > n {
			b = append(b, ',')
		}
		b = append(b, `"grid_points":`...)
		b = strconv.AppendInt(b, int64(c.GridPoints), 10)
	}
	if c.TimeSteps != 0 {
		if len(b) > n {
			b = append(b, ',')
		}
		b = append(b, `"time_steps":`...)
		b = strconv.AppendInt(b, int64(c.TimeSteps), 10)
	}
	if c.MCPaths != 0 {
		if len(b) > n {
			b = append(b, ',')
		}
		b = append(b, `"mc_paths":`...)
		b = strconv.AppendInt(b, int64(c.MCPaths), 10)
	}
	if c.Seed != 0 {
		if len(b) > n {
			b = append(b, ',')
		}
		b = append(b, `"seed":`...)
		b = strconv.AppendUint(b, c.Seed, 10)
	}
	return append(b, '}')
}

// appendJSONFloat appends f with encoding/json's exact float formatting:
// shortest representation, 'f' form except for magnitudes below 1e-6 or
// at/above 1e21 which use 'e' form with a one-digit-minimum exponent
// (e-09 becomes e-9). NaN and infinities return ok=false, mirroring
// encoding/json's UnsupportedValueError.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	// finlint:ignore floateq exact threshold comparison replicated from encoding/json
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

var jsonHex = "0123456789abcdef"

// appendJSONString appends s quoted with encoding/json's default
// escaping: control characters, quotes, backslashes, the HTML characters
// <, >, &, the line separators U+2028/U+2029, and invalid UTF-8 (replaced
// with U+FFFD).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
