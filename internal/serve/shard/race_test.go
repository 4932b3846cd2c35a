package shard

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"finbench/internal/fault"
	"finbench/internal/resilience"
)

// TestRaceRouterUnderChaos hammers the router from many goroutines
// while a fault injector corrupts a third of the backend round trips
// and the health loop runs hot. Run under -race this exercises every
// shared structure (breakers, request state, health flags, stats); the
// availability assertion is deliberately loose — the point here is the
// race detector; TestTopologyChaosAvailability owns the real
// availability floor. The breakers still take every Allow, Success and
// Failure, but their threshold exceeds the attempts the test can make,
// so none opens: the floor measures retries, not how breaker timing
// lines up with host load.
func TestRaceRouterUnderChaos(t *testing.T) {
	spec, err := fault.ParseSpec("11:0.3:refuse,reset,truncate")
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker, maxAttempts = 8, 30, 4
	// Each attempt may add one hedge leg.
	const attemptCap = workers * perWorker * maxAttempts * 2
	tp := newTopology(t, topoConfig{replicas: 3, router: Config{
		HealthInterval: 5 * time.Millisecond,
		MaxAttempts:    maxAttempts,
		HedgeDelay:     2 * time.Millisecond,
		Backoff:        resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		BudgetRatio:    -1, // unlimited retries: this test measures races, not budgets
		Breaker:        resilience.BreakerConfig{FailureThreshold: attemptCap + 1},
		Transport:      &fault.Transport{Inj: fault.NewInjector(spec)},
	}})

	var ok, total atomic.Int64
	var wg sync.WaitGroup
	body := priceBody("", 4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < perWorker; i++ {
				total.Add(1)
				resp, err := client.Post(tp.front.URL+"/price", "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				if resp.StatusCode == 200 {
					ok.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	if frac := float64(ok.Load()) / float64(total.Load()); frac < 0.9 {
		t.Errorf("availability %.2f under 30%% faults with retries; want >= 0.90", frac)
	}
	// Snapshot concurrently-written counters once more for the detector.
	snap := tp.router.Snapshot()
	if snap.Requests == 0 {
		t.Error("no requests counted")
	}
}
