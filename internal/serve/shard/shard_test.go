package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"finbench/internal/resilience"
	"finbench/internal/serve"
	"finbench/internal/serve/wire"
)

func newRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Close)
	return r
}

func priceBody(method string, n int) []byte {
	var b strings.Builder
	b.WriteString(`{"options":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"spot":%d,"strike":100,"expiry":1}`, 90+i%20)
	}
	b.WriteString(`]`)
	if method != "" {
		fmt.Fprintf(&b, `,"method":%q`, method)
	}
	b.WriteString(`}`)
	return []byte(b.String())
}

func post(t *testing.T, url, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestRoutedBitIdentical: a 200 through the router must be
// bit-identical to the same request against a lone backend — the
// reproducibility invariant survives routing.
func TestRoutedBitIdentical(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 3})

	for _, method := range []string{"", "binomial-tree", "monte-carlo"} {
		body := priceBody(method, 8)
		resp, routed := post(t, tp.front.URL, "/price", body)
		if resp.StatusCode != 200 {
			t.Fatalf("method %q: routed status %d: %s", method, resp.StatusCode, routed)
		}
		if resp.Header.Get("X-Finserve-Replica") == "" {
			t.Error("routed 200 missing X-Finserve-Replica")
		}
		dresp, direct := post(t, tp.https[0].URL, "/price", body)
		if dresp.StatusCode != 200 {
			t.Fatalf("direct status %d", dresp.StatusCode)
		}
		var a, b serve.PriceResponse
		if err := json.Unmarshal(routed, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(direct, &b); err != nil {
			t.Fatal(err)
		}
		if len(a.Results) != len(b.Results) {
			t.Fatalf("method %q: result count %d vs %d", method, len(a.Results), len(b.Results))
		}
		for i := range a.Results {
			if a.Results[i].Price != b.Results[i].Price {
				t.Errorf("method %q option %d: routed %v direct %v", method, i, a.Results[i].Price, b.Results[i].Price)
			}
		}
		if a.Method != b.Method || a.Config != b.Config {
			t.Errorf("method %q: effective config differs: %+v vs %+v", method, a, b)
		}
	}
}

// TestFailoverOnDeadReplica: with health checks effectively off, the
// router discovers a dead replica on the request path, fails over, and
// still answers 200.
func TestFailoverOnDeadReplica(t *testing.T) {
	tp := newReplicas(t, topoConfig{replicas: 3})
	tp.https[0].Close() // dead before the router ever saw it healthy

	router, err := New(Config{
		Backends:       tp.urls(),
		HealthInterval: time.Hour, // force request-path discovery
	})
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): replicas stay optimistically healthy, so the dead one
	// is picked until the request path excludes it.
	defer router.Close()
	front := httptest.NewServer(router)
	defer front.Close()

	ok := 0
	for i := 0; i < 10; i++ {
		resp, body := post(t, front.URL, "/price", priceBody("", 4))
		if resp.StatusCode == 200 {
			ok++
		} else {
			t.Logf("request %d: %d %s", i, resp.StatusCode, body)
		}
	}
	if ok != 10 {
		t.Errorf("only %d/10 requests survived a dead replica", ok)
	}
	snap := router.Snapshot()
	if snap.Failovers == 0 {
		t.Error("no failovers recorded despite a dead replica")
	}
}

// TestHealthExcludesDeadReplica: the health loop marks a dead replica
// unroutable so later requests never try it (no failover needed).
func TestHealthExcludesDeadReplica(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 2, router: Config{
		HealthInterval: 10 * time.Millisecond,
	}})

	tp.https[0].Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := tp.router.Snapshot()
		if !snap.Replicas[0].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health loop never noticed the dead replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := tp.router.Snapshot().Failovers
	for i := 0; i < 5; i++ {
		resp, body := post(t, tp.front.URL, "/price", priceBody("", 2))
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, body)
		}
	}
	if got := tp.router.Snapshot().Failovers; got != before {
		t.Errorf("failovers rose %d -> %d; dead replica should have been pre-excluded", before, got)
	}
}

// TestDrainingReplicaBypassed: a draining backend stops receiving
// routed requests (health marks it draining) and the router still
// answers from the live one.
func TestDrainingReplicaBypassed(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 2, router: Config{
		HealthInterval: 10 * time.Millisecond,
	}})

	tp.servers[0].StartDrain()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if tp.router.Snapshot().Replicas[0].Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health loop never saw the drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		resp, body := post(t, tp.front.URL, "/price", priceBody("", 2))
		if resp.StatusCode != 200 {
			t.Fatalf("request %d during drain: %d %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Finserve-Replica"); got == tp.https[0].URL {
			t.Errorf("request %d routed to the draining replica", i)
		}
	}
}

// TestMonteCarloSingleAttempt: Monte Carlo gets exactly one attempt —
// a failing replica surfaces the failure instead of re-running the
// simulation; closed form retries on the same topology.
func TestMonteCarloSingleAttempt(t *testing.T) {
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

	resp, _ := post(t, front.URL, "/price", priceBody("monte-carlo", 2))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("MC against failing replica: status %d, want 500 pass-through", resp.StatusCode)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("monte-carlo request hit the replica %d times, want exactly 1", got)
	}

	hits.Store(0)
	post(t, front.URL, "/price", priceBody("", 2))
	if got := hits.Load(); got < 2 {
		t.Errorf("closed-form request attempted %d times, want retries", got)
	}
}

// TestCorrupt200NeverForwarded: a replica answering 200 with an invalid
// JSON body is treated as failed; the request fails over and the client
// only ever sees a valid 200.
func TestCorrupt200NeverForwarded(t *testing.T) {
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok","in_flight_units":0,"max_units":1,"queue_depth":0,"uptime_s":1}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"results":[{"pri`) // cut mid-body, still a 200
	}))
	defer corrupt.Close()
	tp := newReplicas(t, topoConfig{replicas: 1})

	router := newRouter(t, Config{
		Backends:       []string{corrupt.URL, tp.https[0].URL},
		HealthInterval: time.Hour,
	})
	front := httptest.NewServer(router)
	defer front.Close()

	for i := 0; i < 6; i++ {
		resp, body := post(t, front.URL, "/price", priceBody("", 2))
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, body)
		}
		if !json.Valid(body) {
			t.Fatalf("request %d: router forwarded a corrupt 200: %q", i, body)
		}
		var pr serve.PriceResponse
		if err := json.Unmarshal(body, &pr); err != nil || len(pr.Results) != 2 {
			t.Fatalf("request %d: implausible 200 body %q", i, body)
		}
	}
	if got := router.Snapshot().Corrupt; got == 0 {
		t.Error("corrupt responses never counted")
	}
}

// TestBreakerOpensAndRecovers drives a replica through fail -> breaker
// open -> recovery -> half-open probe -> closed, observing the
// transitions through the router's snapshot. The breaker's clock is a
// fake one that the test moves past the 1s open period.
func TestBreakerOpensAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok","in_flight_units":0,"max_units":1,"queue_depth":0,"uptime_s":1}`)
			return
		}
		if failing.Load() {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"results":[{"price":1}],"method":"closed-form","config":{},"engine":"scalar","elapsed_us":1}`)
	}))
	defer flaky.Close()

	var clock atomic.Int64 // nanoseconds
	router := newRouter(t, Config{
		Backends:       []string{flaky.URL},
		HealthInterval: time.Hour,
		Breaker:        resilience.BreakerConfig{Now: func() time.Time { return time.Unix(0, clock.Load()) }},
	})
	front := httptest.NewServer(router)
	defer front.Close()

	// Trip it: the first request's three attempts and two of the second's
	// are the five consecutive failures that open the breaker; the
	// second's last attempt finds no routable replica.
	for i := 0; i < 2; i++ {
		post(t, front.URL, "/price", priceBody("", 1))
	}
	snap := router.Snapshot()
	if b := snap.Replicas[0].Breaker; b.State != "open" || b.Failures != 5 || b.Opens != 1 {
		t.Fatalf("breaker %+v after two failing requests, want open at 5 failures", b)
	}
	// While open the sole replica is unroutable -> fast 503.
	resp, _ := post(t, front.URL, "/price", priceBody("", 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("no-replica 503 missing Retry-After")
	}

	// Recover the replica, move the clock past the open period, and watch
	// a probe close it.
	failing.Store(false)
	clock.Add(int64(time.Second))
	resp, body := post(t, front.URL, "/price", priceBody("", 1))
	if resp.StatusCode != 200 {
		t.Fatalf("probe after recovery: %d %s", resp.StatusCode, body)
	}
	snap = router.Snapshot()
	if snap.Replicas[0].Breaker.State != "closed" {
		t.Errorf("breaker state %q after successful probe, want closed", snap.Replicas[0].Breaker.State)
	}
}

// TestSlowReplicaPricedOnce: a request whose replica is slow is priced
// by that replica alone. The router never sends a second copy of it to
// another replica, however long the first one takes to answer.
func TestSlowReplicaPricedOnce(t *testing.T) {
	const delay = 100 * time.Millisecond
	var priced [2]atomic.Int32
	backends := make([]string, len(priced))
	for i := range priced {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, `{"status":"ok","in_flight_units":0,"max_units":1,"queue_depth":0,"uptime_s":1}`)
				return
			}
			priced[i].Add(1)
			time.Sleep(delay)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"results":[{"price":1}],"method":"closed-form","config":{},"engine":"scalar","elapsed_us":1}`)
		}))
		defer hs.Close()
		backends[i] = hs.URL
	}
	router := newRouter(t, Config{
		Backends:       backends,
		HealthInterval: time.Hour,
	})
	front := httptest.NewServer(router)
	defer front.Close()

	resp, body := post(t, front.URL, "/price", priceBody("", 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d %s, want 200", resp.StatusCode, body)
	}
	if a, b := priced[0].Load(), priced[1].Load(); a+b != 1 {
		t.Fatalf("replicas priced the request %d and %d times, want once in total", a, b)
	}
	if got := resp.Header.Get("X-Finserve-Attempts"); got != "1" {
		t.Errorf("X-Finserve-Attempts = %q, want \"1\"", got)
	}
	if snap := router.Snapshot(); snap.Retries != 0 || snap.HedgeWins != 0 {
		t.Errorf("retries %d, hedge wins %d, want 0 and 0", snap.Retries, snap.HedgeWins)
	}
}

// TestAllReplicasDown: every backend dead -> 502/503, never a hang.
func TestAllReplicasDown(t *testing.T) {
	tp := newReplicas(t, topoConfig{replicas: 2})
	for _, hs := range tp.https {
		hs.Close()
	}
	router := newRouter(t, Config{
		Backends:       tp.urls(),
		HealthInterval: 10 * time.Millisecond,
	})
	front := httptest.NewServer(router)
	defer front.Close()

	resp, _ := post(t, front.URL, "/price", priceBody("", 2))
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-dead status %d, want 503 or 502", resp.StatusCode)
	}

	// Router /healthz goes unroutable once health checks catch up.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(front.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router /healthz never reported unroutable")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterStatszShape pins the router's /statsz schema: the exact
// top-level key set of a cache-less router (hedge_wins present and always
// 0, no hedges counter), and replica breaker snapshots.
func TestRouterStatszShape(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 2})

	post(t, tp.front.URL, "/price", priceBody("", 2))
	resp, err := http.Get(tp.front.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(top))
	want := []string{"corrupt_responses", "failovers", "health_sweeps", "hedge_wins", "no_replica",
		"replicas", "requests", "retries", "retry_budget_denied", "retry_budget_spent",
		"scenario_partitions", "scenario_requests", "scenario_scattered",
		"stream_requests", "stream_resubscribes", "stream_slow_drops", "uptime_s"}
	if !slices.Equal(keys, want) {
		t.Errorf("top-level keys = %q, want %q", keys, want)
	}

	var snap StatszResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Replicas) != 2 || snap.Requests == 0 {
		t.Fatalf("statsz %+v", snap)
	}
	if snap.HedgeWins != 0 {
		t.Errorf("hedge_wins = %d, want 0: the router does not hedge", snap.HedgeWins)
	}
	for _, rs := range snap.Replicas {
		if rs.Breaker.State == "" {
			t.Errorf("replica %s missing breaker snapshot", rs.URL)
		}
	}
}

// TestPassThrough4xx: a 400 from the backend is the client's fault —
// passed through untouched, not retried.
func TestPassThrough4xx(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 1, router: Config{}})

	resp, body := post(t, tp.front.URL, "/price", []byte(`{"options":[]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty options: %d %s", resp.StatusCode, body)
	}
	var e serve.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("error body not passed through: %q", body)
	}
	if got := tp.router.Snapshot().Retries; got != 0 {
		t.Errorf("4xx was retried %d times", got)
	}
}

func TestDecodeHealthValidates(t *testing.T) {
	good := `{"status":"ok","in_flight_units":5,"max_units":100,"queue_depth":0,"uptime_s":1.5}`
	if _, err := DecodeHealth([]byte(good)); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	for _, bad := range []string{
		``,
		`{}`, // unknown status ""
		`{"status":"exploded"}`,
		`{"status":"ok","in_flight_units":-1}`,
		`{"status":"ok","queue_depth":-3}`,
		`{"status":"ok","uptime_s":-1}`,
		`{"status":"ok","surprise_field":1}`,
		`{"status":"ok"}{"status":"ok"}`,
		`[1,2,3]`,
	} {
		if _, err := DecodeHealth([]byte(bad)); err == nil {
			t.Errorf("DecodeHealth(%q) accepted garbage", bad)
		}
	}
	if _, err := DecodeHealth(bytes.Repeat([]byte(" "), maxHealthBody+1)); err == nil {
		t.Error("oversized body accepted")
	}
}

// TestCorruptColumnar200NeverForwarded is TestCorrupt200NeverForwarded
// for the binary framing: a replica answering a columnar request with a
// 200 whose frame is invalid must be treated as failed and failed over,
// so the client only ever sees a well-formed frame.
func TestCorruptColumnar200NeverForwarded(t *testing.T) {
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok","in_flight_units":0,"max_units":1,"queue_depth":0,"uptime_s":1}`)
			return
		}
		w.Header().Set("Content-Type", wire.ColumnarContentType)
		fmt.Fprint(w, "FBR1 not a frame") // bad magic + truncated, still a 200
	}))
	defer corrupt.Close()
	tp := newReplicas(t, topoConfig{replicas: 1})

	router := newRouter(t, Config{
		Backends:       []string{corrupt.URL, tp.https[0].URL},
		HealthInterval: time.Hour,
	})
	front := httptest.NewServer(router)
	defer front.Close()

	frame := wire.AppendColumnarRequest(nil, &wire.PriceRequest{Columnar: &wire.Columns{
		Spots:    []float64{100, 90},
		Strikes:  []float64{105, 95},
		Expiries: []float64{0.5, 1},
	}})
	for i := 0; i < 6; i++ {
		resp, err := http.Post(front.URL+"/price", wire.ColumnarContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, body.Bytes())
		}
		pr, err := wire.DecodeColumnarResponse(body.Bytes())
		if err != nil {
			t.Fatalf("request %d: router forwarded a corrupt columnar 200: %v", i, err)
		}
		if len(pr.Results) != 2 {
			t.Fatalf("request %d: implausible frame with %d results", i, len(pr.Results))
		}
	}
	if got := router.Snapshot().Corrupt; got == 0 {
		t.Error("corrupt columnar responses never counted")
	}
}
