package shard

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
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
// availability floor. The breakers' clock moves 100ms at every read, so
// a breaker that opens goes half-open within ten reads: every breaker
// transition runs, and none depends on how host load lines up with a
// real open period. The retry budget is removed (a nil budget allows
// every retry) before the router serves: this test measures races, not
// budgets, and a third of all round trips failing asks for more retries
// than the 0.2-per-request budget earns.
func TestRaceRouterUnderChaos(t *testing.T) {
	spec, err := fault.ParseSpec("11:0.3:refuse,reset,truncate")
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 30
	var ticks atomic.Int64
	tp := newReplicas(t, topoConfig{replicas: 3})
	router, err := New(Config{
		Backends:       tp.urls(),
		HealthInterval: 5 * time.Millisecond,
		Breaker: resilience.BreakerConfig{Now: func() time.Time {
			return time.Unix(0, ticks.Add(int64(100*time.Millisecond)))
		}},
		Transport: &fault.Transport{Inj: fault.NewInjector(spec)},
	})
	if err != nil {
		t.Fatal(err)
	}
	router.budget = nil
	router.Start()
	t.Cleanup(router.Close)
	front := httptest.NewServer(router)
	t.Cleanup(front.Close)

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
				resp, err := client.Post(front.URL+"/price", "application/json", bytes.NewReader(body))
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
	snap := router.Snapshot()
	if snap.Requests == 0 {
		t.Error("no requests counted")
	}
}
