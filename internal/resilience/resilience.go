// Package resilience holds the stdlib-only fault-tolerance primitives the
// sharded serving tier is built from: jittered exponential backoff with a
// global retry budget, and a per-replica circuit breaker (closed / open /
// half-open with bounded probe admission).
//
// Everything here is policy-free about *what* may be retried — that
// decision belongs to the caller. The serving tier's rule, inherited from
// the PR 4 bit-reproducibility invariant, is that only methods whose 200
// responses are bit-reproducible independent of execution placement
// (closed form, the lattice methods, greeks) are ever retried; Monte
// Carlo results depend on the batch decomposition, so the router gives
// them exactly one attempt.
//
// Determinism matters even here: Backoff jitter is derived from an
// explicit seed and the attempt counter (splitmix64), never from the
// global math/rand source, so a chaos run replays with identical retry
// timing for an identical failure sequence.
//
// finlint:hot — retry wraps every routed request; its loop must not
// allocate per attempt.
package resilience

import (
	"context"
	"errors"
	"sync"
	"time"
)

// splitmix64 is the seed/attempt mixer behind Backoff jitter: a tiny,
// stateless, well-distributed hash so Delay(attempt) is a pure function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// The retry policy: the first retry waits backoffBase, each later one
// backoffFactor times longer up to backoffMax, and backoffJitter of each
// delay is randomized, centered: delay * [1-jitter/2, 1+jitter/2). A
// retry budget earns budgetRatio tokens per first attempt and holds at
// most budgetCap.
const (
	backoffBase   = 2 * time.Millisecond
	backoffMax    = 100 * time.Millisecond
	backoffFactor = 2
	backoffJitter = 0.5

	budgetRatio = 0.2
	budgetCap   = 50
)

// Backoff computes per-attempt retry delays under the package's retry
// policy, with a deterministic jitter derived from Seed and the attempt
// number. Requests that retry against the same replica should carry
// different seeds, or they wait out the same delays in lockstep.
type Backoff struct {
	// Seed drives the deterministic jitter stream.
	Seed uint64
}

// Delay returns the wait before retry number attempt (attempt 0 is the
// first retry). It is a pure function of the policy: equal (Seed, attempt)
// always yields an equal delay.
func (b Backoff) Delay(attempt int) time.Duration {
	d := float64(backoffBase)
	for i := 0; i < attempt; i++ {
		d *= backoffFactor
		if d >= float64(backoffMax) {
			d = float64(backoffMax)
			break
		}
	}
	h := splitmix64(b.Seed ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15)
	frac := float64(h>>11) / float64(1<<53) // [0,1)
	d *= 1 - backoffJitter/2 + backoffJitter*frac
	if d > float64(backoffMax) {
		d = float64(backoffMax)
	}
	return time.Duration(d)
}

// Budget is a global retry budget in the classic earn/spend form: every
// first attempt earns budgetRatio tokens (capped at budgetCap) and every
// retry spends one. When the budget is dry retries are denied, which
// keeps a brown-out from amplifying load by the retry factor. A nil
// *Budget allows every retry.
type Budget struct {
	mu     sync.Mutex
	tokens float64

	spent  uint64
	denied uint64
}

// NewBudget builds a budget earning budgetRatio (0.2) tokens per
// request, capped at budgetCap (50) tokens. The budget starts full so
// cold-start failures can still be retried.
func NewBudget() *Budget {
	return &Budget{tokens: budgetCap}
}

// OnAttempt credits the budget for one first attempt.
func (b *Budget) OnAttempt() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += budgetRatio
	if b.tokens > budgetCap {
		b.tokens = budgetCap
	}
	b.mu.Unlock()
}

// TryRetry spends one token; it reports false (and counts a denial) when
// the budget is dry.
func (b *Budget) TryRetry() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		b.denied++
		return false
	}
	b.tokens--
	b.spent++
	return true
}

// Counters returns (retries granted, retries denied) so far.
func (b *Budget) Counters() (spent, denied uint64) {
	if b == nil {
		return 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spent, b.denied
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Retry stops immediately and returns the
// underlying error — the caller's way of saying "the operation executed
// (or can never succeed); another attempt would duplicate or waste work".
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// permanentTarget unwraps the Permanent marker, returning the underlying
// error. Interface-in/interface-out so hot retry loops can call it without
// boxing.
func permanentTarget(err error) (error, bool) {
	var pe *permanentError
	if errors.As(err, &pe) {
		return pe.err, true
	}
	return nil, false
}

// Retry runs op until it succeeds, waiting b.Delay between attempts, for
// at most maxAttempts total attempts (minimum 1). It stops early on a
// Permanent error, on ctx expiry, or when budget denies a retry; the
// error returned is the last attempt's (unwrapped if Permanent), or the
// ctx error when the deadline cut the wait. The closure receives the
// attempt index (0-based) and a ctx it must honor.
//
// op runs sequentially — attempt n+1 starts only after attempt n returned
// — but callers routinely share state between op and their own goroutines
// (health checkers, stats), so closures must still be data-race clean.
func Retry(ctx context.Context, maxAttempts int, b Backoff, budget *Budget, op func(ctx context.Context, attempt int) error) error {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt == 0 {
			budget.OnAttempt()
		} else if !budget.TryRetry() {
			return err // budget dry: surface the previous failure
		}
		err = op(ctx, attempt)
		if err == nil {
			return nil
		}
		if under, ok := permanentTarget(err); ok {
			return under
		}
		if attempt == maxAttempts-1 {
			return err
		}
		timer.Reset(b.Delay(attempt))
		select {
		case <-ctx.Done():
			if !timer.Stop() {
				<-timer.C
			}
			return ctx.Err()
		case <-timer.C:
		}
	}
	return err
}
