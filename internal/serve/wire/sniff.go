package wire

// sniffMaxDepth bounds the nesting SniffDegraded walks before bailing (a
// /price 200 nests three deep; encoding/json's own limit is 10000).
const sniffMaxDepth = 32

var keyDegraded = []byte("degraded")

// SniffDegraded reads the top-level "degraded" flag of a /price 200 body
// without decoding the body. ok reports whether the body lies in the
// scan's subset: a top-level object; every string in it ASCII without
// escapes; numbers in JSON grammar; nesting at most sniffMaxDepth; and a
// "degraded" key, if present, holding a literal true or false (last one
// wins, as in encoding/json). Outside the subset — a key that case-folds
// to "degraded" without being it, a null or string value, an escape,
// non-ASCII, malformed input — ok is false and the caller decides with
// encoding/json. Inside it the answer is exactly what json.Unmarshal into
// struct{ Degraded bool `json:"degraded"` } yields: the same fast-path-
// plus-reference design as fastDecodePrice, pinned by FuzzSniffDegraded.
func SniffDegraded(body []byte) (degraded, ok bool) {
	s := scanner{b: body}
	s.skipWS()
	if !s.consume('{') {
		return false, false
	}
	s.skipWS()
	if !s.consume('}') {
		for {
			s.skipWS()
			key, ok := s.rawString()
			if !ok {
				return false, false
			}
			s.skipWS()
			if !s.consume(':') {
				return false, false
			}
			s.skipWS()
			switch {
			case bytesEqual(key, keyDegraded):
				v, ok := s.boolLiteral()
				if !ok {
					return false, false
				}
				degraded = v
			case asciiEqualFold(key, keyDegraded):
				// encoding/json would match it case-insensitively; leave
				// that to the reference.
				return false, false
			default:
				if !s.skipValue(1) {
					return false, false
				}
			}
			s.skipWS()
			if s.consume(',') {
				continue
			}
			if s.consume('}') {
				break
			}
			return false, false
		}
	}
	s.skipWS()
	return degraded, s.i == len(s.b)
}

// asciiEqualFold reports whether a equals the lower-case ASCII word want
// under ASCII case folding.
func asciiEqualFold(a, want []byte) bool {
	if len(a) != len(want) {
		return false
	}
	for i := range a {
		if a[i]|0x20 != want[i] {
			return false
		}
	}
	return true
}

// literal consumes lit if the input continues with it.
func (s *scanner) literal(lit string) bool {
	if len(s.b)-s.i < len(lit) || bts(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

func (s *scanner) boolLiteral() (v, ok bool) {
	switch {
	case s.literal("true"):
		return true, true
	case s.literal("false"):
		return false, true
	}
	return false, false
}

// skipValue steps over one JSON value of the sniff subset, validating it.
func (s *scanner) skipValue(depth int) bool {
	if s.i >= len(s.b) {
		return false
	}
	switch s.b[s.i] {
	case '"':
		_, ok := s.rawString()
		return ok
	case '{':
		if depth >= sniffMaxDepth {
			return false
		}
		s.i++
		s.skipWS()
		if s.consume('}') {
			return true
		}
		for {
			s.skipWS()
			if _, ok := s.rawString(); !ok {
				return false
			}
			s.skipWS()
			if !s.consume(':') {
				return false
			}
			s.skipWS()
			if !s.skipValue(depth + 1) {
				return false
			}
			s.skipWS()
			if !s.consume(',') {
				return s.consume('}')
			}
		}
	case '[':
		if depth >= sniffMaxDepth {
			return false
		}
		s.i++
		s.skipWS()
		if s.consume(']') {
			return true
		}
		for {
			s.skipWS()
			if !s.skipValue(depth + 1) {
				return false
			}
			s.skipWS()
			if !s.consume(',') {
				return s.consume(']')
			}
		}
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	default:
		_, _, ok := s.number()
		return ok
	}
}
