// Package ticker is the streaming feed's simulated market-data source: a
// seed-deterministic random walk over per-underlying spots plus a global
// mean-reverting volatility and rate. Determinism is the property the
// whole streaming tier's verification hangs on — state at sequence n is a
// pure function of (seed, underlyings, n), independent of wall-clock
// timing, so a test (or any stream verifier) can replay any tick the
// server claims to have priced against.
package ticker

import (
	"time"

	"finbench/internal/mathx"
	"finbench/internal/rng"
)

// State is one market tick. Spots holds one spot per underlying; Vol and
// Rate are the flat market parameters of the tick (the paper's kernels
// assume r and sigma shared across the batch, and the streaming tier
// keeps that contract). TimeNS is the wall clock at tick generation —
// observability only, never part of the deterministic state.
type State struct {
	Seq    uint64
	TimeNS int64
	Spots  []float64
	Vol    float64
	Rate   float64
}

// CopyFrom deep-copies src into s, reusing s's backing array when it is
// large enough (the skip-to-latest mailbox overwrites one State in place
// instead of allocating per tick).
func (s *State) CopyFrom(src *State) {
	s.Seq = src.Seq
	s.TimeNS = src.TimeNS
	s.Vol = src.Vol
	s.Rate = src.Rate
	if cap(s.Spots) < len(src.Spots) {
		s.Spots = make([]float64, len(src.Spots))
	}
	s.Spots = s.Spots[:len(src.Spots)]
	copy(s.Spots, src.Spots)
}

// Walk parameters. Per-tick spot steps are lognormal with stdev SpotStep;
// vol and rate take small mean-reverting steps so the flat market drifts
// slowly (a vol move dirties every contract, so it should be rare
// relative to spot moves). Clamps keep the walk inside the kernels'
// valid domain no matter how long it runs.
// tickerTag namespaces the walk's stream away from the universe
// generator's, so both derive independently from one feed seed.
const tickerTag = 0x71c3

const (
	defaultSpot0     = 100.0
	spotStep         = 0.0015 // per-tick lognormal step stdev (~0.15%)
	volRevert        = 0.02   // pull toward vol0 per tick
	volStep          = 0.0004
	volMin, volMax   = 0.05, 1.5
	rateRevert       = 0.02
	rateStep         = 0.00005
	rateMin, rateMax = 0.0, 0.2
)

// Source generates the deterministic tick sequence. Not safe for
// concurrent use; Run owns one on its goroutine, manual (test/bench)
// drivers call Next from a single goroutine.
type Source struct {
	stream *rng.Stream
	seq    uint64
	spots  []float64
	vol    float64
	rate   float64
	vol0   float64
	rate0  float64
	z      []float64 // normal draws scratch: one per underlying + vol + rate
}

// NewSource builds a source of `underlyings` spot paths starting at 100,
// with vol0/rate0 as the mean-reversion anchors and initial values.
func NewSource(seed uint64, underlyings int, vol0, rate0 float64) *Source {
	if underlyings <= 0 {
		underlyings = 1
	}
	s := &Source{
		stream: rng.NewStream(0, rng.DeriveSeed(seed, tickerTag)),
		spots:  make([]float64, underlyings),
		vol:    vol0,
		rate:   rate0,
		vol0:   vol0,
		rate0:  rate0,
		z:      make([]float64, underlyings+2),
	}
	for i := range s.spots {
		s.spots[i] = defaultSpot0
	}
	return s
}

// Next advances the walk one tick and writes the new state into st
// (reusing st's backing array). TimeNS is left untouched — the caller
// stamps it, because manual drivers must stay wall-clock free.
func (s *Source) Next(st *State) {
	s.stream.NormalICDF(s.z)
	for i := range s.spots {
		s.spots[i] *= lognormStep(s.z[i])
	}
	n := len(s.spots)
	s.vol += volRevert*(s.vol0-s.vol) + volStep*s.z[n]
	s.vol = clamp(s.vol, volMin, volMax)
	s.rate += rateRevert*(s.rate0-s.rate) + rateStep*s.z[n+1]
	s.rate = clamp(s.rate, rateMin, rateMax)
	s.seq++

	st.Seq = s.seq
	st.Vol = s.vol
	st.Rate = s.rate
	if cap(st.Spots) < n {
		st.Spots = make([]float64, n)
	}
	st.Spots = st.Spots[:n]
	copy(st.Spots, s.spots)
}

// Run ticks the source every interval on the calling goroutine, stamping
// wall-clock TimeNS and invoking fn with each fresh state, until stop
// closes. fn runs concurrently with the goroutines that launched Run, so
// it must not capture a shared RNG stream or other single-owner state —
// deposit into a mailbox or derive per-tick state inside.
func Run(src *Source, interval time.Duration, stop <-chan struct{}, fn func(*State)) {
	t := time.NewTicker(interval)
	defer t.Stop()
	var st State
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			src.Next(&st)
			st.TimeNS = time.Now().UnixNano()
			fn(&st)
		}
	}
}

// lognormStep is the multiplicative spot step exp(sigma*z - sigma^2/2)
// (drift-compensated so the walk is a martingale).
func lognormStep(z float64) float64 {
	return mathx.Exp(spotStep*z - spotStep*spotStep/2)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
