// Package fault is a deterministic, seed-driven fault injector for the
// serving tier's chaos tests. A Spec ("seed:rate:kinds") decides, as a
// pure function of the seed and a monotonically increasing event index,
// whether each event (an accepted connection, or a client round trip) is
// faulted and how:
//
//	refuse    close the connection the moment it is accepted
//	reset     read the request, then slam the connection shut before
//	          writing a single response byte
//	truncate  write the first bytes of the response, then cut it off
//	latency   hold the connection idle before serving it
//	limp      serve, but drip every write (a slow replica, the classic
//	          tail-latency villain)
//
// Because the decision sequence depends only on (seed, index), a chaos
// run replays: the k-th accepted connection is faulted identically on
// every run with the same spec. The Digest helper fingerprints the first
// n decisions so scripts can assert that reproducibility end to end.
//
// Injection points: NewListener wraps a net.Listener (server side — what
// `finserve serve -fault-spec` uses), Transport wraps an
// http.RoundTripper (client side — what the router unit tests use).
package fault

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Kind is one injectable failure mode.
type Kind uint8

const (
	// KindNone marks an unfaulted event.
	KindNone Kind = iota
	// KindRefuse closes the connection immediately on accept.
	KindRefuse
	// KindReset closes abruptly after the request is read, before any
	// response byte.
	KindReset
	// KindTruncate cuts the response off after its first bytes.
	KindTruncate
	// KindLatency delays the connection before serving it.
	KindLatency
	// KindLimp throttles every write on the connection.
	KindLimp
)

// String returns the spec-grammar name.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindRefuse:
		return "refuse"
	case KindReset:
		return "reset"
	case KindTruncate:
		return "truncate"
	case KindLatency:
		return "latency"
	case KindLimp:
		return "limp"
	}
	return "unknown"
}

// parseKind inverts String for the spec grammar.
func parseKind(s string) (Kind, error) {
	switch s {
	case "refuse":
		return KindRefuse, nil
	case "reset":
		return KindReset, nil
	case "truncate":
		return KindTruncate, nil
	case "latency":
		return KindLatency, nil
	case "limp":
		return KindLimp, nil
	}
	return KindNone, fmt.Errorf("unknown fault kind %q (have refuse, reset, truncate, latency, limp)", s)
}

// Spec is a parsed fault specification.
type Spec struct {
	// Seed drives the deterministic decision stream.
	Seed uint64
	// Rate is the per-event fault probability in [0,1].
	Rate float64
	// Kinds are the enabled failure modes; a faulted event picks one
	// deterministically.
	Kinds []Kind
	// Latency is the hold applied by KindLatency (default 50ms).
	Latency time.Duration
	// LimpDelay is the per-write drip of KindLimp (default 5ms).
	LimpDelay time.Duration
	// TruncateAfter is how many response bytes KindTruncate lets through
	// (default 24 — enough for part of the status line, never a full
	// valid body).
	TruncateAfter int
}

// ParseSpec parses the "seed:rate:kinds" grammar, e.g.
// "42:0.1:refuse,reset,latency" (kinds may also be '+'-separated).
func ParseSpec(s string) (*Spec, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("fault spec %q: want seed:rate:kinds", s)
	}
	seed, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("fault spec seed %q: %v", parts[0], err)
	}
	rate, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || rate < 0 || rate > 1 {
		return nil, fmt.Errorf("fault spec rate %q: want a probability in [0,1]", parts[1])
	}
	kindList := strings.FieldsFunc(parts[2], func(r rune) bool { return r == ',' || r == '+' })
	if len(kindList) == 0 {
		return nil, fmt.Errorf("fault spec %q: no kinds", s)
	}
	spec := &Spec{Seed: seed, Rate: rate}
	seen := make(map[Kind]bool)
	for _, ks := range kindList {
		k, err := parseKind(strings.TrimSpace(ks))
		if err != nil {
			return nil, err
		}
		if !seen[k] {
			seen[k] = true
			spec.Kinds = append(spec.Kinds, k)
		}
	}
	return spec.withDefaults(), nil
}

func (s *Spec) withDefaults() *Spec {
	if s.Latency <= 0 {
		s.Latency = 50 * time.Millisecond
	}
	if s.LimpDelay <= 0 {
		s.LimpDelay = 5 * time.Millisecond
	}
	if s.TruncateAfter <= 0 {
		s.TruncateAfter = 24
	}
	return s
}

// String renders the canonical spec grammar.
func (s *Spec) String() string {
	names := make([]string, len(s.Kinds))
	for i, k := range s.Kinds {
		names[i] = k.String()
	}
	return fmt.Sprintf("%d:%g:%s", s.Seed, s.Rate, strings.Join(names, ","))
}

// splitmix64 mixes seed and index into a well-distributed 64-bit word.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Decide returns the decision for event index i — a pure function of
// (Seed, Rate, Kinds, i).
func (s *Spec) Decide(i uint64) Kind {
	if s.Rate <= 0 || len(s.Kinds) == 0 {
		return KindNone
	}
	h := splitmix64(s.Seed ^ (i+1)*0xd1342543de82ef95)
	if float64(h>>11)/float64(1<<53) >= s.Rate {
		return KindNone
	}
	pick := splitmix64(h)
	return s.Kinds[pick%uint64(len(s.Kinds))]
}

// Digest fingerprints the first n decisions (FNV-1a over the kind bytes).
// Two runs of the same spec always agree; scripts/smoke.sh asserts this
// through `finserve fault`.
func (s *Spec) Digest(n int) uint64 {
	h := fnv.New64a()
	var buf [1]byte
	for i := 0; i < n; i++ {
		buf[0] = byte(s.Decide(uint64(i)))
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

// Injector hands out decisions in event order.
type Injector struct {
	spec *Spec
	next atomic.Uint64
}

// NewInjector builds an injector over spec (nil spec injects nothing).
func NewInjector(spec *Spec) *Injector {
	if spec != nil {
		spec = spec.withDefaults()
	}
	return &Injector{spec: spec}
}

// NextDecision consumes the next event index and returns its fault kind.
func (inj *Injector) NextDecision() Kind {
	if inj.spec == nil {
		return KindNone
	}
	return inj.spec.Decide(inj.next.Add(1) - 1)
}
