package resilience

import (
	"sync"
	"time"
)

// State is a circuit breaker's position.
type State uint8

const (
	// Closed admits every request (the healthy state).
	Closed State = iota
	// Open refuses every request until openFor has elapsed.
	Open
	// HalfOpen admits up to probeLimit concurrent trial requests; enough
	// successes close the breaker, any failure reopens it.
	HalfOpen
)

// String returns the conventional lowercase name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// The breaker policy: failureThreshold consecutive failures open a
// breaker; after openFor it admits up to probeLimit concurrent trial
// requests, and successesToClose probe successes close it.
const (
	failureThreshold = 5
	openFor          = time.Second
	probeLimit       = 1
	successesToClose = 1
)

// BreakerConfig holds a Breaker's clock.
type BreakerConfig struct {
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Breaker is a per-replica circuit breaker. Callers bracket each request
// with Allow (admission) and exactly one of Success/Failure per admitted
// request; Allow returning false means the replica is to be skipped.
type Breaker struct {
	now func() time.Time

	mu           sync.Mutex
	state        State
	consecFails  int
	openedAt     time.Time
	probesOut    int // trial requests currently in flight (half-open)
	probeSuccess int

	opens     uint64
	probes    uint64
	successes uint64
	failures  uint64
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{now: cfg.Now}
}

// Allow reports whether a request may be sent. In the open state it flips
// to half-open once openFor has elapsed and admits a bounded number of
// probes; excess callers are refused until a probe resolves.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.now().Sub(b.openedAt) < openFor {
			return false
		}
		b.state = HalfOpen
		b.probesOut = 0
		b.probeSuccess = 0
		fallthrough
	case HalfOpen:
		if b.probesOut >= probeLimit {
			return false
		}
		b.probesOut++
		b.probes++
		return true
	}
	return true
}

// Success records a request that completed healthily.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.successes++
	switch b.state {
	case Closed:
		b.consecFails = 0
	case HalfOpen:
		if b.probesOut > 0 {
			b.probesOut--
		}
		b.probeSuccess++
		if b.probeSuccess >= successesToClose {
			b.state = Closed
			b.consecFails = 0
		}
	case Open:
		// A straggler from before the trip; harmless.
	}
}

// Failure records a failed request (transport error, 5xx, truncation).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	switch b.state {
	case Closed:
		b.consecFails++
		if b.consecFails >= failureThreshold {
			b.trip()
		}
	case HalfOpen:
		if b.probesOut > 0 {
			b.probesOut--
		}
		b.trip()
	case Open:
		// Already open; stragglers don't extend the window (openedAt is
		// the decision point the half-open timer runs from).
	}
}

// trip moves to open; callers hold b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.now()
	b.opens++
	b.probeSuccess = 0
}

// State returns the current position, applying the open→half-open clock
// transition so observers don't read a stale "open".
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.now().Sub(b.openedAt) >= openFor {
		return HalfOpen // next Allow will make it official
	}
	return b.state
}

// BreakerSnapshot is the observable state for /statsz.
type BreakerSnapshot struct {
	State     string `json:"state"`
	Opens     uint64 `json:"opens"`
	Probes    uint64 `json:"probes"`
	Successes uint64 `json:"successes"`
	Failures  uint64 `json:"failures"`
}

// Snapshot returns the counters and effective state.
func (b *Breaker) Snapshot() BreakerSnapshot {
	state := b.State().String()
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State:     state,
		Opens:     b.opens,
		Probes:    b.probes,
		Successes: b.successes,
		Failures:  b.failures,
	}
}
