package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRaceBreakerStress hammers one breaker from many goroutines — the
// shape the router produces when every worker brackets requests with
// Allow/Success/Failure while a health checker reads Snapshot. Run under
// -race by scripts/check.sh. Each clock read advances 100ms, so an open
// breaker reaches half-open within ten reads and every transition runs.
func TestRaceBreakerStress(t *testing.T) {
	var ticks atomic.Int64
	clock := func() time.Time { return time.Unix(0, ticks.Add(int64(100*time.Millisecond))) }
	b := NewBreaker(BreakerConfig{Now: clock})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if b.Allow() {
					if (i/8+w)%3 == 0 { // runs of 8 failures
						b.Failure()
					} else {
						b.Success()
					}
				}
				if i%64 == 0 {
					_ = b.Snapshot()
					_ = b.State()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := b.Snapshot()
	if snap.Successes == 0 || snap.Opens == 0 || snap.Probes == 0 {
		t.Errorf("snapshot %+v: want successes, opens and probes under stress", snap)
	}
}

// TestRaceBudgetStress exercises concurrent earn/spend.
func TestRaceBudgetStress(t *testing.T) {
	budget := NewBudget()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				budget.OnAttempt()
				budget.TryRetry()
			}
		}()
	}
	wg.Wait()
	spent, denied := budget.Counters()
	if spent+denied == 0 {
		t.Error("budget recorded no activity")
	}
}

// TestRaceRetryStress runs many Retry loops concurrently against one
// shared budget, with mixed failures; each closure touches only its own
// call's state, and the budget's counters must add up to the retries the
// loops asked for.
func TestRaceRetryStress(t *testing.T) {
	budget := NewBudget()
	b := Backoff{}
	var asked [8]uint64
	var wg sync.WaitGroup
	for w := range asked {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				next := 0
				// Every attempt can fail, or the budget deny a retry; both are fine.
				_ = Retry(context.Background(), 3, b, budget, func(ctx context.Context, attempt int) error {
					if attempt != next {
						t.Errorf("worker %d call %d: attempt %d, want %d", w, i, attempt, next)
					}
					next++
					if attempt > 0 {
						asked[w]++
					}
					if (i+attempt+w)%3 == 0 {
						return errors.New("transient")
					}
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for _, n := range asked {
		total += n
	}
	if spent, _ := budget.Counters(); spent != total {
		t.Errorf("budget spent %d retries, the loops ran %d", spent, total)
	}
}
