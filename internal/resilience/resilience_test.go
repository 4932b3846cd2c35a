package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	b := Backoff{Seed: 42}
	// The ladder doubles from 2ms and caps at 100ms; the jitter keeps each
	// delay within [0.75, 1.25) of its rung and never above the cap.
	rung := 2 * time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		d1 := b.Delay(attempt)
		d2 := b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: Delay not deterministic: %v vs %v", attempt, d1, d2)
		}
		lo, hi := rung*3/4, min(rung*5/4, 100*time.Millisecond)
		if d1 < lo || d1 > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d1, lo, hi)
		}
		rung = min(2*rung, 100*time.Millisecond)
	}
	// Different seeds draw different jitter (overwhelmingly likely across
	// 8 attempts).
	other := Backoff{Seed: 43}
	same := true
	for attempt := 0; attempt < 8; attempt++ {
		if b.Delay(attempt) != other.Delay(attempt) {
			same = false
		}
	}
	if same {
		t.Error("two seeds produced identical 8-delay sequences")
	}
}

func TestBudgetEarnSpend(t *testing.T) {
	b := NewBudget() // starts full at 50 tokens
	for i := 0; i < 50; i++ {
		if !b.TryRetry() {
			t.Fatalf("full budget denied retry %d", i)
		}
	}
	if b.TryRetry() {
		t.Fatal("empty budget granted a retry")
	}
	for i := 0; i < 4; i++ {
		b.OnAttempt() // +0.2 each — still under one token
	}
	if b.TryRetry() {
		t.Fatal("0.8 tokens granted a retry")
	}
	b.OnAttempt() // 1.0
	if !b.TryRetry() {
		t.Fatal("1.0 tokens denied a retry")
	}
	spent, denied := b.Counters()
	if spent != 51 || denied != 2 {
		t.Errorf("counters = (%d,%d), want (51,2)", spent, denied)
	}
	// The cap holds: 300 first attempts earn 60 tokens, 50 are kept.
	for i := 0; i < 300; i++ {
		b.OnAttempt()
	}
	for i := 0; i < 50; i++ {
		if !b.TryRetry() {
			t.Fatalf("capped budget denied retry %d", i)
		}
	}
	if b.TryRetry() {
		t.Fatal("budget held more than 50 tokens")
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
	err := Retry(context.Background(), 5, Backoff{}, nil,
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
	err := Retry(context.Background(), 5, Backoff{}, nil,
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
	err := Retry(context.Background(), 3, Backoff{}, nil,
		func(ctx context.Context, attempt int) error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err=%v calls=%d, want boom/3", err, calls)
	}
}

func TestRetryRespectsBudget(t *testing.T) {
	boom := errors.New("down")
	budget := NewBudget()
	for i := 0; i < 49; i++ {
		budget.TryRetry() // leave one token
	}
	calls := 0
	err := Retry(context.Background(), 10, Backoff{}, budget,
		func(ctx context.Context, attempt int) error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 { // first attempt (+0.2) + the single budgeted retry
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	boom := errors.New("down")
	err := Retry(ctx, 100, Backoff{}, nil,
		func(ctx context.Context, attempt int) error { return boom })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestRetrySingleAttempt: maxAttempts 1 (and anything below it) runs op
// once and returns its error at once, never waiting out a backoff. The
// ctx is cancelled before the call, so a wait would return its error
// instead of op's.
func TestRetrySingleAttempt(t *testing.T) {
	boom := errors.New("down")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{1, 0, -3} {
		calls := 0
		err := Retry(ctx, n, Backoff{}, nil,
			func(ctx context.Context, attempt int) error { calls++; return boom })
		if !errors.Is(err, boom) || calls != 1 {
			t.Fatalf("maxAttempts %d: err=%v calls=%d, want boom/1", n, err, calls)
		}
	}
}

// TestRetryAttemptsNeverOverlap: attempt n+1 starts only after attempt n
// returned, even when an attempt is slow and the backoff is near zero.
// Callers keep per-request state without a lock on this guarantee.
func TestRetryAttemptsNeverOverlap(t *testing.T) {
	var inFlight, overlaps, calls atomic.Int32
	err := Retry(context.Background(), 4, Backoff{}, nil,
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
	b := Backoff{}
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
		done <- Retry(ctx, 3, Backoff{}, nil,
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
		t.Fatal("Retry did not return after cancel")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{Now: clock})

	if b.State() != Closed || !b.Allow() {
		t.Fatal("new breaker should be closed and admitting")
	}
	// Interleaved successes reset the consecutive-failure count.
	for i := 0; i < 4; i++ {
		b.Failure()
	}
	b.Success()
	for i := 0; i < 4; i++ {
		b.Failure()
	}
	if b.State() != Closed {
		t.Fatal("breaker opened before 5 consecutive failures")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatal("breaker did not open at 5 consecutive failures")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request")
	}
	snap := b.Snapshot()
	if snap.Opens != 1 || snap.State != "open" {
		t.Fatalf("snapshot = %+v", snap)
	}

	// Just short of the 1s open period it still refuses; at 1s exactly
	// one trial request is admitted.
	now = now.Add(time.Second - time.Nanosecond)
	if b.State() != Open || b.Allow() {
		t.Fatal("breaker admitted a request before its open period ended")
	}
	now = now.Add(time.Nanosecond)
	if b.State() != HalfOpen {
		t.Fatal("State() did not report half-open after the open period")
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the first probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// One probe success closes it.
	b.Success()
	if b.State() != Closed {
		t.Fatal("breaker did not close after a probe success")
	}

	// A probe failure reopens immediately.
	for i := 0; i < 5; i++ {
		b.Failure()
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("no probe admitted after reopen + the open period")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatal("failed probe did not reopen the breaker")
	}
	if got := b.Snapshot().Opens; got != 3 {
		t.Fatalf("opens = %d, want 3", got)
	}
}
