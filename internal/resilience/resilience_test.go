package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: 50 * time.Millisecond, Factor: 2, Jitter: 0.5, Seed: 42}
	for attempt := 0; attempt < 12; attempt++ {
		d1 := b.Delay(attempt)
		d2 := b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: Delay not deterministic: %v vs %v", attempt, d1, d2)
		}
		if d1 < 0 || d1 > 50*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside [0, Max]", attempt, d1)
		}
	}
	// Different seeds draw different jitter (overwhelmingly likely across
	// 8 attempts).
	other := b
	other.Seed = 43
	same := true
	for attempt := 0; attempt < 8; attempt++ {
		if b.Delay(attempt) != other.Delay(attempt) {
			same = false
		}
	}
	if same {
		t.Error("two seeds produced identical 8-delay sequences")
	}
	// The un-jittered ladder grows geometrically until the cap.
	nj := Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond, Factor: 2, Jitter: -1}
	want := []time.Duration{1, 2, 4, 8, 8, 8}
	for i, w := range want {
		if got := nj.Delay(i); got != w*time.Millisecond {
			t.Errorf("attempt %d: delay %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBudgetEarnSpend(t *testing.T) {
	b := NewBudget(0.5, 2) // starts full at 2 tokens
	if !b.TryRetry() || !b.TryRetry() {
		t.Fatal("full budget denied initial retries")
	}
	if b.TryRetry() {
		t.Fatal("empty budget granted a retry")
	}
	b.OnAttempt() // +0.5 — still under one token
	if b.TryRetry() {
		t.Fatal("0.5 tokens granted a retry")
	}
	b.OnAttempt() // 1.0
	if !b.TryRetry() {
		t.Fatal("1.0 tokens denied a retry")
	}
	spent, denied := b.Counters()
	if spent != 3 || denied != 2 {
		t.Errorf("counters = (%d,%d), want (3,2)", spent, denied)
	}
	// nil budget allows everything.
	var nb *Budget
	nb.OnAttempt()
	if !nb.TryRetry() {
		t.Error("nil budget denied a retry")
	}
}

func TestRetrySucceedsAfterFailures(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), 5, Backoff{Base: time.Microsecond, Jitter: -1}, nil,
		func(ctx context.Context, attempt int) error {
			if attempt != calls {
				t.Errorf("attempt = %d, want %d", attempt, calls)
			}
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil/3", err, calls)
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	sentinel := errors.New("executed; do not repeat")
	calls := 0
	err := Retry(context.Background(), 5, Backoff{Base: time.Microsecond}, nil,
		func(ctx context.Context, attempt int) error {
			calls++
			return Permanent(sentinel)
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the unwrapped sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if _, ok := permanentTarget(err); ok {
		t.Error("Retry should unwrap the Permanent marker")
	}
	if _, ok := permanentTarget(Permanent(sentinel)); !ok {
		t.Error("Permanent(err) carries no marker")
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) != nil")
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	boom := errors.New("still down")
	calls := 0
	err := Retry(context.Background(), 3, Backoff{Base: time.Microsecond, Jitter: -1}, nil,
		func(ctx context.Context, attempt int) error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err=%v calls=%d, want boom/3", err, calls)
	}
}

func TestRetryRespectsBudget(t *testing.T) {
	boom := errors.New("down")
	budget := NewBudget(0.1, 1) // one token: exactly one retry
	calls := 0
	err := Retry(context.Background(), 10, Backoff{Base: time.Microsecond, Jitter: -1}, budget,
		func(ctx context.Context, attempt int) error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 { // first attempt + the single budgeted retry
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	boom := errors.New("down")
	err := Retry(ctx, 100, Backoff{Base: 50 * time.Millisecond, Jitter: -1}, nil,
		func(ctx context.Context, attempt int) error { return boom })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestRetrySingleAttempt: maxAttempts 1 (and anything below it) runs op
// once and returns its error at once, never waiting out a backoff.
func TestRetrySingleAttempt(t *testing.T) {
	boom := errors.New("down")
	for _, n := range []int{1, 0, -3} {
		calls := 0
		start := time.Now()
		err := Retry(context.Background(), n, Backoff{Base: time.Hour}, nil,
			func(ctx context.Context, attempt int) error { calls++; return boom })
		if !errors.Is(err, boom) || calls != 1 {
			t.Fatalf("maxAttempts %d: err=%v calls=%d, want boom/1", n, err, calls)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("maxAttempts %d: returned after %v, a backoff was waited", n, d)
		}
	}
}

// TestRetryAttemptsNeverOverlap: attempt n+1 starts only after attempt n
// returned, even when an attempt is slow and the backoff is near zero.
// Callers keep per-request state without a lock on this guarantee.
func TestRetryAttemptsNeverOverlap(t *testing.T) {
	var inFlight, overlaps, calls atomic.Int32
	err := Retry(context.Background(), 4, Backoff{Base: time.Nanosecond, Max: time.Nanosecond}, nil,
		func(ctx context.Context, attempt int) error {
			if inFlight.Add(1) != 1 {
				overlaps.Add(1)
			}
			defer inFlight.Add(-1)
			calls.Add(1)
			time.Sleep(5 * time.Millisecond)
			if attempt < 3 {
				return errors.New("slow and down")
			}
			return nil
		})
	if err != nil || calls.Load() != 4 {
		t.Fatalf("err=%v calls=%d, want nil/4", err, calls.Load())
	}
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d attempts started while another ran", n)
	}
}

// TestRetryWaitsBackoffBetweenAttempts: the gap between the end of
// attempt n and the start of attempt n+1 is at least b.Delay(n).
func TestRetryWaitsBackoffBetweenAttempts(t *testing.T) {
	b := Backoff{Base: 4 * time.Millisecond, Max: 16 * time.Millisecond, Jitter: -1}
	var starts, ends []time.Time
	err := Retry(context.Background(), 4, b, nil,
		func(ctx context.Context, attempt int) error {
			starts = append(starts, time.Now())
			defer func() { ends = append(ends, time.Now()) }()
			if attempt < 3 {
				return errors.New("down")
			}
			return nil
		})
	if err != nil || len(starts) != 4 {
		t.Fatalf("err=%v attempts=%d, want nil/4", err, len(starts))
	}
	for n := 0; n < 3; n++ {
		if gap := starts[n+1].Sub(ends[n]); gap < b.Delay(n) {
			t.Errorf("attempt %d started %v after attempt %d ended, want >= %v", n+1, gap, n, b.Delay(n))
		}
	}
}

// TestRetryCancelDuringBackoff: cancelling ctx while Retry waits between
// attempts returns ctx's error at once, with no further attempt.
func TestRetryCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	done := make(chan error, 1)
	go func() {
		done <- Retry(ctx, 3, Backoff{Base: time.Hour, Max: time.Hour}, nil,
			func(ctx context.Context, attempt int) error {
				calls++
				cancel() // the wait that follows is the one cut short
				return errors.New("down")
			})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) || calls != 1 {
			t.Fatalf("err=%v calls=%d, want Canceled/1", err, calls)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Retry kept waiting out an hour-long backoff after cancel")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: time.Second, Probes: 1, SuccessesToClose: 2, Now: clock})

	if b.State() != Closed || !b.Allow() {
		t.Fatal("new breaker should be closed and admitting")
	}
	// Interleaved successes reset the consecutive-failure count.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("breaker opened before threshold consecutive failures")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatal("breaker did not open at 3 consecutive failures")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request")
	}
	snap := b.Snapshot()
	if snap.Opens != 1 || snap.State != "open" {
		t.Fatalf("snapshot = %+v", snap)
	}

	// After OpenFor, exactly Probes trial requests are admitted.
	now = now.Add(time.Second)
	if b.State() != HalfOpen {
		t.Fatal("State() did not report half-open after OpenFor")
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the first probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker exceeded its probe budget")
	}
	// First probe succeeds but SuccessesToClose=2 keeps it half-open.
	b.Success()
	if b.State() != HalfOpen {
		t.Fatal("breaker closed after 1 of 2 required probe successes")
	}
	if !b.Allow() {
		t.Fatal("freed probe slot was not re-admitted")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatal("breaker did not close after the required probe successes")
	}

	// A probe failure reopens immediately.
	b.Failure()
	b.Failure()
	b.Failure()
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("no probe admitted after reopen + OpenFor")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatal("failed probe did not reopen the breaker")
	}
	if got := b.Snapshot().Opens; got != 3 {
		t.Fatalf("opens = %d, want 3", got)
	}
}
