package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"finbench/internal/scenario"
	"finbench/internal/serve/wire"
)

func scenarioBody(t *testing.T, gens bool) []byte {
	t.Helper()
	req := &scenario.Request{
		Portfolio: []scenario.Position{
			{Type: "call", Spot: 100, Strike: 105, Expiry: 0.5, Quantity: 5},
			{Type: "put", Spot: 95, Strike: 100, Expiry: 1, Quantity: -2},
			{Spot: 110, Strike: 100, Expiry: 2},
		},
		Grid: scenario.Grid{
			SpotShocks: []float64{-0.2, -0.1, 0, 0.1, 0.2},
			VolShocks:  []float64{-0.05, 0, 0.05},
			RateShifts: []float64{-0.01, 0.01},
		},
	}
	if gens {
		req.Generators = []scenario.Generator{
			{Model: scenario.ModelHeston, Scenarios: 6, Seed: 21},
			{Model: scenario.ModelJump, Scenarios: 5, Seed: 22},
			{Model: scenario.ModelBasket, Scenarios: 5, Seed: 23, Assets: 2, Corr: 0.7},
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestScenarioRoutedBitIdentical is the tentpole invariant: a /scenario
// 200 scatter-gathered across replicas is byte-for-byte what a lone
// replica answers, generators included, at any replica count.
func TestScenarioRoutedBitIdentical(t *testing.T) {
	for _, gens := range []bool{false, true} {
		for _, n := range []int{1, 2, 3} {
			tp := newTopology(t, topoConfig{replicas: n})
			body := scenarioBody(t, gens)

			resp, routed := post(t, tp.front.URL, "/scenario", body)
			if resp.StatusCode != 200 {
				t.Fatalf("gens=%v n=%d: routed status %d: %s", gens, n, resp.StatusCode, routed)
			}
			dresp, direct := post(t, tp.https[0].URL, "/scenario", body)
			if dresp.StatusCode != 200 {
				t.Fatalf("gens=%v n=%d: direct status %d", gens, n, dresp.StatusCode)
			}
			if !bytes.Equal(routed, direct) {
				t.Errorf("gens=%v n=%d: routed body differs from lone replica\n routed: %s\n direct: %s",
					gens, n, routed, direct)
			}
			parts := resp.Header.Get("X-Finserve-Partitions")
			if n >= 2 {
				if p, _ := strconv.Atoi(parts); p < 2 {
					t.Errorf("gens=%v n=%d: X-Finserve-Partitions = %q, want >= 2", gens, n, parts)
				}
			} else if parts != "" {
				t.Errorf("n=1 routed request reported partitions %q", parts)
			}
			if scattered := tp.router.Snapshot().ScenarioScattered; (scattered > 0) != (n >= 2) {
				t.Errorf("gens=%v n=%d: router counted %d scattered requests", gens, n, scattered)
			}
			tp.front.Close()
		}
	}
}

// TestScenarioPartitionFailover: a replica dying before the scatter is
// discovered on the request path; its closed-form partitions fail over
// and the merged 200 still matches a lone live replica byte-for-byte.
func TestScenarioPartitionFailover(t *testing.T) {
	tp := newReplicas(t, topoConfig{replicas: 3})
	tp.https[0].Close() // dead, but optimistically healthy: no Start()

	router, err := New(Config{
		Backends:       tp.urls(),
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := httptest.NewServer(router)
	defer front.Close()

	body := scenarioBody(t, false) // closed-form only: every partition may fail over
	_, direct := post(t, tp.https[1].URL, "/scenario", body)
	for i := 0; i < 5; i++ {
		resp, routed := post(t, front.URL, "/scenario", body)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, routed)
		}
		if !bytes.Equal(routed, direct) {
			t.Fatalf("request %d: failed-over merge differs from lone replica", i)
		}
	}
	if snap := router.Snapshot(); snap.Failovers == 0 {
		t.Error("no failovers recorded despite a dead replica in the scatter set")
	}
}

// TestScenarioMonteCarloPartitionSingleAttempt: a generator partition
// landing on a failing replica is never re-attempted — the failure
// passes through — while closed-form grid partitions retry.
func TestScenarioMonteCarloPartitionSingleAttempt(t *testing.T) {
	var hits atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok","in_flight_units":0,"max_units":1,"queue_depth":0,"uptime_s":1}`)
			return
		}
		hits.Add(1)
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer bad.Close()

	router := newRouter(t, Config{
		Backends: []string{bad.URL},
	})
	front := httptest.NewServer(router)
	defer front.Close()

	// One generator, no grid: a single Monte Carlo partition (routed as a
	// plain single dispatch on one replica).
	mcOnly, err := json.Marshal(&scenario.Request{
		Portfolio:  []scenario.Position{{Spot: 100, Strike: 100, Expiry: 1}},
		Grid:       scenario.Grid{SpotShocks: []float64{0}},
		Generators: []scenario.Generator{{Model: scenario.ModelJump, Scenarios: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := post(t, front.URL, "/scenario", mcOnly)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("MC scenario against failing replica: status %d, want 500 pass-through", resp.StatusCode)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("Monte Carlo scenario hit the replica %d times, want exactly 1", got)
	}

	hits.Store(0)
	post(t, front.URL, "/scenario", scenarioBody(t, false))
	if got := hits.Load(); got < 2 {
		t.Errorf("closed-form scenario attempted %d times, want retries", got)
	}
}

// TestScenarioSubRangePassThrough: a request that already carries a
// cells sub-range is someone else's partition — the router forwards it
// whole instead of re-splitting.
func TestScenarioSubRangePassThrough(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 2})

	var req scenario.Request
	if err := json.Unmarshal(scenarioBody(t, false), &req); err != nil {
		t.Fatal(err)
	}
	req.Cells = &scenario.Cells{Start: 3, Count: 4}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, routed := post(t, tp.front.URL, "/scenario", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, routed)
	}
	if resp.Header.Get("X-Finserve-Partitions") != "" {
		t.Error("sub-range request was re-split by the router")
	}
	if resp.Header.Get("X-Finserve-Replica") == "" {
		t.Error("pass-through 200 missing X-Finserve-Replica")
	}
	_, direct := post(t, tp.https[0].URL, "/scenario", body)
	if !bytes.Equal(routed, direct) {
		t.Error("pass-through sub-range differs from direct answer")
	}
}

// TestScenarioInvalid400PassThrough: validation stays with the backend;
// the router forwards its 400 without splitting.
func TestScenarioInvalid400PassThrough(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 2})

	for _, body := range []string{
		`{"portfolio":[]}`,
		`{"portfolio":[{"spot":-1,"strike":100,"expiry":1}]}`,
		`not json`,
	} {
		resp, _ := post(t, tp.front.URL, "/scenario", []byte(body))
		if resp.StatusCode != 400 {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if snap := tp.router.Snapshot(); snap.ScenarioScattered != 0 {
		t.Errorf("invalid requests were scattered: %d", snap.ScenarioScattered)
	}
}

// TestScenarioRouterStatsz: the scatter counters show up in the
// router's snapshot.
func TestScenarioRouterStatsz(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 2})

	if resp, body := post(t, tp.front.URL, "/scenario", scenarioBody(t, true)); resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	snap := tp.router.Snapshot()
	if snap.ScenarioRequests != 1 || snap.ScenarioScattered != 1 {
		t.Errorf("scenario counters = %d/%d, want 1/1", snap.ScenarioRequests, snap.ScenarioScattered)
	}
	// 2 grid partitions + 3 generator blocks.
	if snap.ScenarioPartitions != 5 {
		t.Errorf("scenario partitions = %d, want 5", snap.ScenarioPartitions)
	}
}

// TestScenarioRoutedNonFiniteLadder400: every cell of this surface is
// finite, so each replica answers its sub-range 200, but the tail the
// router sums for the ladder overflows to -Inf. The router encodes the
// merge before it writes the status and answers 400, as a lone replica
// does for the whole request, never a 200 with an empty body.
func TestScenarioRoutedNonFiniteLadder400(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 2})
	body := []byte(`{"portfolio":[{"spot":100,"strike":100,"expiry":1,"quantity":1e307}],` +
		`"grid":{"spot_shocks":[-0.9,-0.8,0,0.1]},"var_levels":[0.5]}`)
	for _, base := range []string{tp.front.URL, tp.https[0].URL} {
		resp, got := post(t, base, "/scenario", body)
		var e struct{ Error string }
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(got, &e) != nil || e.Error != wire.NonFiniteError {
			t.Errorf("%s: status %d body %q, want 400 %q", base, resp.StatusCode, got, wire.NonFiniteError)
		}
	}
	if snap := tp.router.Snapshot(); snap.ScenarioScattered != 1 {
		t.Errorf("scattered %d requests, want 1: the merge path was not exercised", snap.ScenarioScattered)
	}
}
