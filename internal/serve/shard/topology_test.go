package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"finbench"
	"finbench/internal/fault"
	"finbench/internal/resilience"
	"finbench/internal/scenario"
	"finbench/internal/serve"
	"finbench/internal/serve/stream"
	"finbench/internal/serve/wire"
)

// The tests in this file drive one in-process deployment: a Router in
// front of N serve.Server replicas, each on its own loopback listener
// wrapped by internal/fault's injector. Replica count and fault seed are
// test dimensions (CI's GOMAXPROCS loop adds the core count), and every
// kill, revival or drain fires after a count of completed requests, never
// after a sleep, so a topology's timeline is the same on any host.

var (
	topoReplicas   = []int{1, 2, 3}
	topoFaultSeeds = []uint64{42, 7, 2026}
	// topoMarket is serve's default market, every replica's unless a test
	// sets one; the verifiers reprice with it.
	topoMarket = finbench.Market{Rate: 0.02, Volatility: 0.3}
)

// topoConfig describes a topology. Router.Backends is filled in.
type topoConfig struct {
	replicas int
	serve    serve.Config
	router   Config
	// faultSeed > 0 wraps replica i's listener in the injector for spec
	// "faultSeed+i:0.10:refuse,reset,truncate": 10% of its connections
	// are refused, reset or truncated.
	faultSeed uint64
}

type topology struct {
	t       *testing.T
	cfg     topoConfig
	router  *Router
	front   *httptest.Server
	servers []*serve.Server
	https   []*httptest.Server
	client  *http.Client
}

// newReplicas starts tc.replicas replicas with no router in front.
func newReplicas(t *testing.T, tc topoConfig) *topology {
	t.Helper()
	tp := &topology{
		t:       t,
		cfg:     tc,
		servers: make([]*serve.Server, tc.replicas),
		https:   make([]*httptest.Server, tc.replicas),
	}
	for i := range tp.servers {
		tp.start(i, nil)
	}
	return tp
}

// newTopology starts the replicas and a router in front of them.
func newTopology(t *testing.T, tc topoConfig) *topology {
	t.Helper()
	tp := newReplicas(t, tc)
	rc := tc.router
	rc.Backends = tp.urls()
	tp.router = newRouter(t, rc)
	tp.front = httptest.NewServer(tp.router)
	t.Cleanup(tp.front.Close)
	transport := &http.Transport{MaxIdleConnsPerHost: 16}
	t.Cleanup(transport.CloseIdleConnections)
	tp.client = &http.Client{Transport: transport, Timeout: time.Minute}
	return tp
}

// urls lists the replicas' base URLs.
func (tp *topology) urls() []string {
	urls := make([]string, len(tp.https))
	for i, hs := range tp.https {
		urls[i] = hs.URL
	}
	return urls
}

// start boots replica i on ln, or on a fresh loopback port when ln is nil.
func (tp *topology) start(i int, ln net.Listener) {
	cfg := tp.cfg.serve
	if cfg.Stream != nil {
		hcfg := *cfg.Stream // each replica owns its stream config
		cfg.Stream = &hcfg
	}
	s := serve.New(cfg)
	hs := httptest.NewUnstartedServer(s.Handler())
	if ln != nil {
		hs.Listener.Close()
		hs.Listener = ln
	}
	if tp.cfg.faultSeed > 0 {
		spec, err := fault.ParseSpec(fmt.Sprintf("%d:0.10:refuse,reset,truncate", tp.cfg.faultSeed+uint64(i)))
		if err != nil {
			tp.t.Fatal(err)
		}
		hs.Listener = fault.NewListener(hs.Listener, fault.NewInjector(spec))
	}
	hs.Start()
	tp.t.Cleanup(hs.Close)
	tp.t.Cleanup(s.Close)
	tp.servers[i], tp.https[i] = s, hs
}

// kill takes replica i down the way a crash does: live connections are
// reset and the listener closes.
func (tp *topology) kill(i int) {
	tp.https[i].CloseClientConnections()
	tp.https[i].Close()
}

// revive boots a fresh replica i on the address the killed one held.
func (tp *topology) revive(i int) {
	addr := tp.https[i].Listener.Addr().String()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		tp.t.Fatalf("reviving replica %d on %s: %v", i, addr, err)
	}
	tp.start(i, ln)
}

// post sends one request and reads the whole reply; status 0 means a
// transport error.
func (tp *topology) post(url, ctype string, body []byte) (int, http.Header, []byte) {
	resp, err := tp.client.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil
	}
	return resp.StatusCode, resp.Header, data
}

// price posts a JSON /price request to base and bit-verifies a 200
// against the library.
func (tp *topology) price(base string, req *wire.PriceRequest) int {
	body, err := json.Marshal(req)
	if err != nil {
		tp.t.Error(err)
		return 0
	}
	code, _, data := tp.post(base+"/price", "application/json", body)
	if code == http.StatusOK {
		var pr wire.PriceResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			tp.t.Errorf("/price 200 body %q: %v", data, err)
		} else if err := verifyPrice(req, &pr); err != nil {
			tp.t.Errorf("/price %s: %v", req.Method, err)
		}
	}
	return code
}

// greeks posts a /greeks request to base and bit-verifies a 200.
func (tp *topology) greeks(base string, req *wire.GreeksRequest) int {
	body, err := json.Marshal(req)
	if err != nil {
		tp.t.Error(err)
		return 0
	}
	code, _, data := tp.post(base+"/greeks", "application/json", body)
	if code == http.StatusOK {
		var gr wire.GreeksResponse
		if err := json.Unmarshal(data, &gr); err != nil {
			tp.t.Errorf("/greeks 200 body %q: %v", data, err)
		} else if err := verifyGreeks(req, &gr); err != nil {
			tp.t.Errorf("/greeks: %v", err)
		}
	}
	return code
}

// replicaStatsz reads replica i's /statsz.
func (tp *topology) replicaStatsz(i int) serve.StatszResponse {
	tp.t.Helper()
	resp, err := tp.client.Get(tp.https[i].URL + "/statsz")
	if err != nil {
		tp.t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap serve.StatszResponse
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		tp.t.Fatal(err)
	}
	return snap
}

// untilBreakerCloses sends requests call(from), call(from+1), ... until
// replica i's breaker reads closed; each must answer 200.
func (tp *topology) untilBreakerCloses(i int, call func(int) int, from int) {
	tp.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); tp.router.Snapshot().Replicas[i].Breaker.State != "closed"; from++ {
		if code := call(from); code != http.StatusOK {
			tp.t.Fatalf("request %d while replica %d's breaker recovers: status %d", from, i, code)
		}
		if time.Now().After(deadline) {
			tp.t.Fatalf("replica %d's breaker never closed", i)
		}
	}
}

// burst runs n requests over workers goroutines and counts their status
// codes. call(i) sends request i and checks its reply with t.Errorf. When
// at > 0, fire runs once the at-th request completes, and requests from
// at+workers on start only after it returns: the event lands inside the
// burst with n-at-workers requests behind it, however fast the host.
func burst(n, workers, at int, fire func(), call func(i int) int) map[int]int {
	var (
		next, done atomic.Int64
		fired      = make(chan struct{})
		mu         sync.Mutex
		codes      = make(map[int]int)
		wg         sync.WaitGroup
	)
	if at <= 0 {
		close(fired)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if i >= at+workers {
					<-fired
				}
				code := call(i)
				mu.Lock()
				codes[code]++
				mu.Unlock()
				if at > 0 && done.Add(1) == int64(at) {
					fire()
					close(fired)
				}
			}
		}()
	}
	wg.Wait()
	return codes
}

// onlyCodes fails unless every status seen is in allowed.
func onlyCodes(t *testing.T, codes map[int]int, allowed ...int) {
	t.Helper()
	ok := make(map[int]bool, len(allowed))
	for _, c := range allowed {
		ok[c] = true
	}
	for c, n := range codes {
		if !ok[c] {
			t.Errorf("status %d seen %d times; want only %v (0 = transport error): %v", c, n, allowed, codes)
		}
	}
}

// availability is the fraction of n requests answered 200.
func availability(codes map[int]int, n int) float64 {
	return float64(codes[http.StatusOK]) / float64(n)
}

// randomOptions draws n plausible contracts; lattice methods get a share
// of American puts.
func randomOptions(rng *rand.Rand, n int, method string) []wire.Option {
	opts := make([]wire.Option, n)
	for i := range opts {
		o := &opts[i]
		o.Spot = 50 + 100*rng.Float64()
		o.Strike = 50 + 100*rng.Float64()
		o.Expiry = 0.1 + 3*rng.Float64()
		if rng.Intn(2) == 1 {
			o.Type = "put"
		}
		switch method {
		case "binomial-tree", "crank-nicolson", "trinomial-tree":
			if o.Type == "put" && rng.Intn(2) == 1 {
				o.Style = "american"
			}
		}
	}
	return opts
}

// mixedCall returns a burst call that sends request i of a seeded method
// mix (table entries are /price methods, "" for the closed form, or
// "greeks") through the router and verifies every 200.
func (tp *topology) mixedCall(seed int64, table []string, nopts int) func(int) int {
	return func(i int) int {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		method := table[i%len(table)]
		if method == "greeks" {
			return tp.greeks(tp.front.URL, &wire.GreeksRequest{Options: randomOptions(rng, nopts, method)})
		}
		req := &wire.PriceRequest{Method: method, Options: randomOptions(rng, nopts, method)}
		if method != "" {
			req.Config = wire.Config{MCPaths: 16384, BinomialSteps: 128, GridPoints: 128, TimeSteps: 200}
		}
		return tp.price(tp.front.URL, req)
	}
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// verifyPrice recomputes every result of a /price 200 from the effective
// method and config it reports: the closed form through a one-option
// LevelAdvanced batch (composition independence makes those the bits of
// any coalesced batch), every other method through finbench.Price.
func verifyPrice(req *wire.PriceRequest, resp *wire.PriceResponse) error {
	method, err := wire.ParseMethod(resp.Method)
	if err != nil {
		return err
	}
	if len(resp.Results) != len(req.Options) {
		return fmt.Errorf("%d results for %d options", len(resp.Results), len(req.Options))
	}
	cfg := resp.Config.ToConfig()
	b := finbench.NewBatch(1)
	for i, o := range req.Options {
		var want finbench.Result
		if method == finbench.ClosedForm {
			b.Spots[0], b.Strikes[0], b.Expiries[0] = o.Spot, o.Strike, o.Expiry
			if err := finbench.PriceBatch(b, topoMarket, finbench.LevelAdvanced); err != nil {
				return err
			}
			want.Price = b.Calls[0]
			if o.Type == "put" {
				want.Price = b.Puts[0]
			}
		} else if want, err = finbench.Price(o.ToOption(), topoMarket, method, &cfg); err != nil {
			return err
		}
		got := resp.Results[i]
		if !bitsEq(got.Price, want.Price) || !bitsEq(got.StdErr, want.StdErr) {
			return fmt.Errorf("option %d %+v: served (%v, %v), library (%v, %v)",
				i, o, got.Price, got.StdErr, want.Price, want.StdErr)
		}
	}
	return nil
}

// verifyGreeks recomputes every /greeks result with finbench.ComputeGreeks.
func verifyGreeks(req *wire.GreeksRequest, resp *wire.GreeksResponse) error {
	if len(resp.Results) != len(req.Options) {
		return fmt.Errorf("%d results for %d options", len(resp.Results), len(req.Options))
	}
	for i, o := range req.Options {
		g, err := finbench.ComputeGreeks(o.ToOption(), topoMarket)
		if err != nil {
			return err
		}
		delta := g.DeltaCall
		if o.Type == "put" {
			delta = g.DeltaPut
		}
		if got := resp.Results[i]; !bitsEq(got.Delta, delta) || !bitsEq(got.Gamma, g.Gamma) {
			return fmt.Errorf("option %d %+v: served %+v, library delta %v gamma %v", i, o, got, delta, g.Gamma)
		}
	}
	return nil
}

// TestTopologyMixedMethodsBitMatch: a mixed burst of every /price method
// plus /greeks, routed over 1, 2 and 3 replicas, answers 200 every time,
// and every result bit-matches the library.
func TestTopologyMixedMethodsBitMatch(t *testing.T) {
	table := []string{"", "", "", "", "", "", "monte-carlo", "binomial-tree", "crank-nicolson", "trinomial-tree", "greeks", "greeks"}
	for _, n := range topoReplicas {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			tp := newTopology(t, topoConfig{replicas: n})
			const requests = 48
			codes := burst(requests, 4, 0, nil, tp.mixedCall(1, table, 6))
			if codes[http.StatusOK] != requests {
				t.Errorf("codes %v, want %d 200s", codes, requests)
			}
		})
	}
}

// TestTopologyDeadlineBurstCancelsWork: a burst of Monte Carlo requests
// whose deadline is far below their cost answers 408, and once the last
// 408 is back the parallel pool's scheduler counters stand still: the
// cancelled work stopped, it did not just stop being waited for.
func TestTopologyDeadlineBurstCancelsWork(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 1})
	replica := tp.https[0].URL
	const requests = 12
	codes := burst(requests, 6, 0, nil, func(i int) int {
		rng := rand.New(rand.NewSource(int64(i)))
		return tp.price(replica, &wire.PriceRequest{
			Method:     "monte-carlo",
			Options:    randomOptions(rng, 2, "monte-carlo"),
			Config:     wire.Config{MCPaths: 1 << 20},
			DeadlineMS: 2,
		})
	})
	onlyCodes(t, codes, http.StatusOK, http.StatusRequestTimeout)
	if codes[http.StatusRequestTimeout] < requests*2/3 {
		t.Errorf("codes %v: want at least %d 408s", codes, requests*2/3)
	}
	before := tp.replicaStatsz(0).Sched
	// An observation window, not an ordering: nothing may run in it.
	time.Sleep(100 * time.Millisecond)
	after := tp.replicaStatsz(0).Sched
	for k, v := range after {
		if before[k] != v {
			t.Errorf("sched %s moved %d -> %d after every request had answered", k, before[k], v)
		}
	}
}

// TestTopologyAdmissionShedsWith503: with the work budget held by one
// long Monte Carlo request, a burst that cannot be admitted within
// AdmitWait is shed with 503 — never any other error — and the holder
// still answers 200.
func TestTopologyAdmissionShedsWith503(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 1, serve: serve.Config{MaxUnits: 30, AdmitWait: time.Millisecond}})
	replica := tp.https[0].URL
	rng := rand.New(rand.NewSource(4))
	holderDone := make(chan int, 1)
	// The holder draws the server's maximum paths, so that at
	// GOMAXPROCS=1 it is still computing when the poll below gets a
	// /statsz round trip through.
	go func() {
		holderDone <- tp.price(replica, &wire.PriceRequest{
			Method: "monte-carlo", Options: randomOptions(rng, 2, "monte-carlo"),
			Config: wire.Config{MCPaths: 1 << 22},
		})
	}()
	for deadline := time.Now().Add(10 * time.Second); tp.replicaStatsz(0).InFlightUnits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the holder request never took its work units")
		}
		time.Sleep(time.Millisecond)
	}
	codes := burst(8, 8, 0, nil, func(i int) int {
		rng := rand.New(rand.NewSource(int64(i)))
		return tp.price(replica, &wire.PriceRequest{
			Method: "monte-carlo", Options: randomOptions(rng, 1, "monte-carlo"),
			Config: wire.Config{MCPaths: 1 << 18},
		})
	})
	codes[<-holderDone]++
	onlyCodes(t, codes, http.StatusOK, http.StatusServiceUnavailable)
	if codes[http.StatusOK] == 0 || codes[http.StatusServiceUnavailable] == 0 {
		t.Errorf("codes %v: want both 200 and 503", codes)
	}
}

// TestTopologyIdenticalBurstComputesOnce: 64 identical closed-form
// requests from 8 clients run exactly one computation in the router's
// cache; every other request is a hit or a collapse onto the one flight,
// and all 64 bodies are the same bytes.
func TestTopologyIdenticalBurstComputesOnce(t *testing.T) {
	const requests = 64
	rng := rand.New(rand.NewSource(6))
	req := &wire.PriceRequest{Options: randomOptions(rng, 8, "")}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range topoReplicas {
		t.Run(fmt.Sprintf("router-tier/replicas=%d", n), func(t *testing.T) {
			tp := newTopology(t, topoConfig{replicas: n, router: Config{CacheBytes: 64 << 20}})
			bodies := make([][]byte, requests)
			codes := burst(requests, 8, 0, nil, func(i int) int {
				code, _, data := tp.post(tp.front.URL+"/price", "application/json", body)
				bodies[i] = data
				return code
			})
			if codes[http.StatusOK] != requests {
				t.Fatalf("codes %v, want %d 200s", codes, requests)
			}
			for i := range bodies {
				if !bytes.Equal(bodies[i], bodies[0]) {
					t.Fatalf("body %d differs from body 0:\n%s\n%s", i, bodies[i], bodies[0])
				}
			}
			var pr wire.PriceResponse
			if err := json.Unmarshal(bodies[0], &pr); err != nil {
				t.Fatal(err)
			}
			if err := verifyPrice(req, &pr); err != nil {
				t.Error(err)
			}
			st := tp.router.Snapshot().Cache
			if st.Misses != 1 || st.Hits+st.Collapsed != requests-1 {
				t.Errorf("cache misses %d, hits %d, collapsed %d: want 1 miss and %d hits+collapsed",
					st.Misses, st.Hits, st.Collapsed, requests-1)
			}
		})
	}
}

// TestTopologyZipfCacheBitClean: requests drawn Zipf(1.2) from a pool of
// 64 batches, through a router with its cache on. Every 200 — cold or
// cached — bit-matches the library, and no batch is computed twice:
// misses are bounded by the distinct batches drawn, so the hit rate's
// floor holds by construction.
func TestTopologyZipfCacheBitClean(t *testing.T) {
	const requests, poolSize = 300, 64
	rng := rand.New(rand.NewSource(3))
	pool := make([][]wire.Option, poolSize)
	for i := range pool {
		pool[i] = randomOptions(rng, 8, "")
	}
	zipf := rand.NewZipf(rng, 1.2, 1, poolSize-1)
	ranks := make([]uint64, requests)
	distinct := make(map[uint64]bool)
	for i := range ranks {
		ranks[i] = zipf.Uint64()
		distinct[ranks[i]] = true
	}
	for _, n := range topoReplicas {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			tp := newTopology(t, topoConfig{replicas: n, router: Config{CacheBytes: 64 << 20}})
			codes := burst(requests, 4, 0, nil, func(i int) int {
				return tp.price(tp.front.URL, &wire.PriceRequest{Options: pool[ranks[i]]})
			})
			if codes[http.StatusOK] != requests {
				t.Fatalf("codes %v, want %d 200s", codes, requests)
			}
			st := tp.router.Snapshot().Cache
			if served := st.Misses + st.Hits + st.Collapsed; served != requests {
				t.Errorf("router cache saw %d requests, want %d", served, requests)
			}
			if bound := uint64(len(distinct)); st.Misses > bound {
				t.Errorf("%d misses for %d distinct batches (bound %d)", st.Misses, len(distinct), bound)
			}
		})
	}
}

// TestTopologyColumnarMatchesJSONReplay: closed-form batches sent as
// binary columnar frames through the router (its cache on, which
// columnar bypasses) bit-match the library and a JSON replay of the same
// contracts, at 1, 2 and 3 replicas.
func TestTopologyColumnarMatchesJSONReplay(t *testing.T) {
	for _, n := range topoReplicas {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			tp := newTopology(t, topoConfig{replicas: n, router: Config{CacheBytes: 64 << 20}})
			const requests = 48
			codes := burst(requests, 4, 0, nil, func(i int) int {
				opts := randomOptions(rand.New(rand.NewSource(9+int64(i))), 8, "")
				cols := wire.Columns{
					Spots:    make([]float64, len(opts)),
					Strikes:  make([]float64, len(opts)),
					Expiries: make([]float64, len(opts)),
				}
				types := make([]byte, len(opts))
				for j, o := range opts {
					cols.Spots[j], cols.Strikes[j], cols.Expiries[j] = o.Spot, o.Strike, o.Expiry
					types[j] = 'c'
					if o.Type == "put" {
						types[j] = 'p'
					}
				}
				cols.Types = string(types)
				frame := wire.AppendColumnarRequest(nil, &wire.PriceRequest{Columnar: &cols})
				code, hdr, data := tp.post(tp.front.URL+"/price", wire.ColumnarContentType, frame)
				if code != http.StatusOK {
					return code
				}
				if ct := hdr.Get("Content-Type"); ct != wire.ColumnarContentType {
					t.Errorf("columnar 200 came back as %q", ct)
					return code
				}
				pr, err := wire.DecodeColumnarResponse(data)
				if err != nil {
					t.Errorf("columnar 200: %v", err)
					return code
				}
				jreq := &wire.PriceRequest{Options: opts}
				if err := verifyPrice(jreq, pr); err != nil {
					t.Errorf("columnar: %v", err)
				}
				jbody, err := json.Marshal(jreq)
				if err != nil {
					t.Error(err)
					return code
				}
				jcode, _, jdata := tp.post(tp.front.URL+"/price", "application/json", jbody)
				var jr wire.PriceResponse
				if jcode != http.StatusOK || json.Unmarshal(jdata, &jr) != nil {
					t.Errorf("JSON replay: %d %s", jcode, jdata)
					return code
				}
				if jr.Method != pr.Method || jr.Config != pr.Config || len(jr.Results) != len(pr.Results) {
					t.Errorf("JSON replay %+v differs from columnar %+v", jr, pr)
					return code
				}
				for j := range pr.Results {
					if !bitsEq(jr.Results[j].Price, pr.Results[j].Price) {
						t.Errorf("option %d: columnar %v, JSON %v", j, pr.Results[j].Price, jr.Results[j].Price)
					}
				}
				return code
			})
			if codes[http.StatusOK] != requests {
				t.Errorf("codes %v, want %d 200s", codes, requests)
			}
		})
	}
}

// TestTopologyNonFiniteKeepsBreakersClosed: a valid contract whose
// result is not finite answers 400 on every endpoint and framing, so ten
// of them through the router are the client's fault, not a replica's:
// every breaker stays closed with no failure counted, nothing is retried
// or flagged corrupt, and the good traffic after them answers 200.
func TestTopologyNonFiniteKeepsBreakersClosed(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 3})
	const probe = `"spot":5e-324,"strike":5e-324,"expiry":5e-324`
	frame := wire.AppendColumnarRequest(nil, &wire.PriceRequest{Columnar: &wire.Columns{
		Spots: []float64{5e-324}, Strikes: []float64{5e-324}, Expiries: []float64{5e-324},
	}})
	probes := []struct {
		path, ctype string
		body        []byte
	}{
		{"/price", "application/json", []byte(`{"options":[{` + probe + `}]}`)},
		{"/price", wire.ColumnarContentType, frame},
		{"/greeks", "application/json", []byte(`{"options":[{` + probe + `}]}`)},
		{"/scenario", "application/json", []byte(`{"portfolio":[{` + probe + `,"quantity":1}],"grid":{"spot_shocks":[0]}}`)},
	}
	for i := 0; i < 10; i++ {
		p := probes[i%len(probes)]
		code, _, body := tp.post(tp.front.URL+p.path, p.ctype, p.body)
		var e wire.ErrorResponse
		if code != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Error != wire.NonFiniteError {
			t.Fatalf("probe %d %s (%s): status %d body %q, want 400 %q", i, p.path, p.ctype, code, body, wire.NonFiniteError)
		}
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 6; i++ {
		if code := tp.price(tp.front.URL, &wire.PriceRequest{Options: randomOptions(rng, 4, "")}); code != http.StatusOK {
			t.Fatalf("good request %d after the probes: status %d", i, code)
		}
	}
	snap := tp.router.Snapshot()
	for i, rs := range snap.Replicas {
		if rs.Breaker.State != "closed" || rs.Breaker.Failures != 0 {
			t.Errorf("replica %d breaker %+v, want closed with no failures", i, rs.Breaker)
		}
	}
	if snap.Retries != 0 || snap.Corrupt != 0 {
		t.Errorf("retries %d, corrupt 200s %d: want 0 and 0", snap.Retries, snap.Corrupt)
	}
}

// scenarioRequest draws a grid-only portfolio: every partition is closed
// form, so the router may re-attempt any of them.
func scenarioRequest(rng *rand.Rand) *scenario.Request {
	req := &scenario.Request{
		Portfolio: make([]scenario.Position, 6),
		Grid: scenario.Grid{
			SpotShocks: []float64{-0.2, -0.1, 0, 0.1, 0.2},
			VolShocks:  []float64{-0.05, 0, 0.05},
			RateShifts: []float64{-0.01, 0, 0.01},
		},
	}
	for i := range req.Portfolio {
		p := &req.Portfolio[i]
		p.Spot = 50 + 100*rng.Float64()
		p.Strike = 50 + 100*rng.Float64()
		p.Expiry = 0.1 + 3*rng.Float64()
		p.Quantity = float64(rng.Intn(21) - 10)
		if rng.Intn(2) == 1 {
			p.Type = "put"
		}
	}
	return req
}

// scenarioBytes is the library's own /scenario answer to req.
func scenarioBytes(req *scenario.Request) ([]byte, error) {
	base, pnl, err := scenario.EvaluateCells(context.Background(), req, topoMarket, 0, req.NumCells())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(scenario.Finalize(req, base, 0, pnl))
	return buf.Bytes(), err
}

// TestTopologyScenarioSurvivesKill: a replica killed in the middle of a
// /scenario burst, and revived on its address 40 requests later, costs
// nothing: its partitions fail over, every request answers 200, and every
// merged body is byte-identical to the library's, and after the revival
// a probe closes the replica's breaker. The router runs its default
// breaker and health check; the breaker's clock moves 100 ms per
// completed request, so unless the health check takes the dead replica
// out of routing first, its breaker goes half-open and re-trips inside
// the burst, and while a probe is out the other replicas take the
// traffic.
func TestTopologyScenarioSurvivesKill(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			var completed atomic.Int64
			start := time.Now()
			clock := func() time.Time {
				return start.Add(time.Duration(completed.Load()) * 100 * time.Millisecond)
			}
			tp := newTopology(t, topoConfig{replicas: n, router: Config{
				Breaker: resilience.BreakerConfig{Now: clock},
			}})
			const requests = 120
			call := func(i int) int {
				defer func() {
					if completed.Add(1) == 70 {
						tp.revive(0)
					}
				}()
				req := scenarioRequest(rand.New(rand.NewSource(int64(i))))
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return 0
				}
				code, _, data := tp.post(tp.front.URL+"/scenario", "application/json", body)
				if code == http.StatusOK {
					if want, err := scenarioBytes(req); err != nil || !bytes.Equal(data, want) {
						t.Errorf("request %d: merged body differs from the library (%v)\n got: %s\nwant: %s", i, err, data, want)
					}
				}
				return code
			}
			codes := burst(requests, 4, 30, func() { tp.kill(0) }, call)
			if codes[http.StatusOK] != requests {
				t.Errorf("codes %v, want %d 200s", codes, requests)
			}
			snap := tp.router.Snapshot()
			if snap.ScenarioScattered == 0 || snap.Failovers == 0 {
				t.Errorf("scattered %d, failovers %d: want the kill to land on scattered requests",
					snap.ScenarioScattered, snap.Failovers)
			}
			tp.untilBreakerCloses(0, call, requests)
		})
	}
}

// TestTopologyStreamColdAndResync: SSE subscribers over HTTP receive
// entries that each bit-match a cold repricing at their echoed inputs,
// and a subscriber that stops reading until its buffer overflows is
// brought back by a resync snapshot, whose entries verify too.
func TestTopologyStreamColdAndResync(t *testing.T) {
	hcfg := smallStreamCfg(256)
	hcfg.SpotThreshold = -1 // every tick reprices the whole universe
	hcfg.Budget = time.Second
	hcfg.SubscriberBuffer = 2
	tp := newTopology(t, topoConfig{replicas: 1, serve: serve.Config{Stream: &hcfg, StreamWriteTimeout: time.Minute}})
	replica := tp.https[0].URL

	subscribe := func(contracts string) (*http.Response, *stream.FrameReader) {
		t.Helper()
		resp, err := http.Get(replica + "/stream?contracts=" + contracts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/stream = %d", resp.StatusCode)
		}
		return resp, stream.NewFrameReader(resp.Body)
	}
	// next reads one state event, verifying every entry in it.
	next := func(fr *stream.FrameReader, b *finbench.Batch) (stream.Event, error) {
		for {
			f, err := fr.Next()
			if err != nil {
				return stream.Event{}, err
			}
			if f.Event != stream.EventSnapshot && f.Event != stream.EventGreeks {
				continue
			}
			var ev stream.Event
			if err := json.Unmarshal(f.Data, &ev); err != nil {
				return ev, err
			}
			for _, e := range ev.Contracts {
				if err := verifyEntryCold(b, e); err != nil {
					return ev, err
				}
			}
			return ev, nil
		}
	}

	// Well-behaved subscribers, concurrently, over overlapping ranges.
	const events = 20
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for _, sub := range []string{"0-255", "0-127", "64-191"} {
		resp, fr := subscribe(sub)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer resp.Body.Close()
			b := finbench.NewBatch(1)
			for i := 0; i < events; i++ {
				if _, err := next(fr, b); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// A slow subscriber: after its first snapshot it reads nothing until
	// the replica reports dropped events, then must see a resync.
	dropped := tp.replicaStatsz(0).Stream.EventsDropped
	_, fr := subscribe("0-255")
	b := finbench.NewBatch(1)
	if _, err := next(fr, b); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); tp.replicaStatsz(0).Stream.EventsDropped == dropped; {
		if time.Now().After(deadline) {
			t.Fatal("a stalled subscriber's buffer never overflowed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		ev, err := next(fr, b)
		if err != nil {
			t.Fatalf("slow subscriber: %v", err)
		}
		if ev.Resync {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the overflowed subscriber never received a resync snapshot")
		}
	}
}

// TestTopologyDrainWaitsForStreams: Drain returns only once every open
// stream's handler has finished — including one blocked writing to a
// subscriber that stopped reading, which gives up at its write deadline.
func TestTopologyDrainWaitsForStreams(t *testing.T) {
	hcfg := smallStreamCfg(256)
	hcfg.SpotThreshold = -1
	hcfg.Budget = time.Second
	hcfg.SubscriberBuffer = 2
	tp := newTopology(t, topoConfig{replicas: 1, serve: serve.Config{Stream: &hcfg, StreamWriteTimeout: time.Second}})
	// A subscriber with a small receive buffer that never reads.
	conn, err := net.Dial("tcp", tp.https[0].Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /stream HTTP/1.1\r\nHost: replica\r\n\r\n")
	// Once its socket is full the handler blocks in a write: the hub then
	// drops every event for the subscriber and sends none. Wait for 25
	// drops in a row with no send in between.
	var sent, dropped uint64
	for deadline := time.Now().Add(30 * time.Second); ; {
		st := tp.replicaStatsz(0).Stream
		if st.EventsSent != sent || st.EventsDropped < dropped {
			sent, dropped = st.EventsSent, st.EventsDropped
		} else if st.EventsDropped >= dropped+25 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the stream handler never blocked on a subscriber that reads nothing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tp.servers[0].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := tp.replicaStatsz(0).Stream; st.SlowDisconnects == 0 {
		t.Errorf("Drain returned while a stream handler was still blocked writing: %+v", st)
	}
}

// chaosRouter is the router configuration of the chaos tests: retries
// with a short backoff and an unlimited retry budget, and a transport
// that dials for every attempt, so every attempt faces the listener's
// faults.
func chaosRouter(t *testing.T) Config {
	transport := &http.Transport{DisableKeepAlives: true}
	t.Cleanup(transport.CloseIdleConnections)
	return Config{
		HealthInterval: time.Hour, // routing state comes from the request path
		MaxAttempts:    4,
		Backoff:        resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		BudgetRatio:    -1,
		Transport:      transport,
	}
}

// TestTopologyChaosAvailability: with 10% of every replica's connections
// refused, reset or truncated, a routed mix of closed form, binomial and
// greeks stays at ≥ 99% 200s, and every 200 bit-matches the library —
// the router never forwards a corrupt one, first attempt or retry.
// Replica count, fault seed and the router cache are the dimensions; with
// the cache on, the burst is replayed, so every closed-form 200 of the
// replay is a hit whose stored bytes were filled under faults and must
// still bit-match. At a 10% fault rate a request needs about 0.11
// retries on average; more than one retry per four requests means the
// router retries what it need not.
func TestTopologyChaosAvailability(t *testing.T) {
	table := []string{"", "", "", "binomial-tree", "greeks"}
	for _, n := range []int{2, 3} {
		for _, seed := range topoFaultSeeds {
			for _, cache := range []bool{false, true} {
				t.Run(fmt.Sprintf("replicas=%d/seed=%d/cache=%v", n, seed, cache), func(t *testing.T) {
					rc := chaosRouter(t)
					if cache {
						rc.CacheBytes = 1 << 20
					}
					tp := newTopology(t, topoConfig{replicas: n, router: rc, faultSeed: seed})
					const requests = 120
					call := tp.mixedCall(int64(seed), table, 4)
					codes := burst(requests, 6, 0, nil, call)
					if a := availability(codes, requests); a < 0.99 {
						t.Errorf("availability %.3f under 10%% faults, want >= 0.99: %v", a, codes)
					}
					snap := tp.router.Snapshot()
					var failed uint64
					for _, rs := range snap.Replicas {
						failed += rs.Breaker.Failures
					}
					if failed == 0 {
						t.Error("no failed attempts: the injected faults never reached the request path")
					}
					if snap.Retries > requests/4 {
						t.Errorf("%d retries for %d requests at a 10%% fault rate, want <= %d", snap.Retries, requests, requests/4)
					}
					t.Logf("codes %v, failed attempts %d, retries %d, corrupt 200s %d",
						codes, failed, snap.Retries, snap.Corrupt)
					if !cache {
						return
					}
					stored := snap.Cache.Inserts
					replay := burst(requests, 6, 0, nil, call)
					if a := availability(replay, requests); a < 0.99 {
						t.Errorf("replay availability %.3f under 10%% faults, want >= 0.99: %v", a, replay)
					}
					cs := tp.router.Snapshot().Cache
					if stored == 0 || cs.Hits != stored {
						t.Fatalf("replay must hit each of the %d entries stored by the first burst once: %+v", stored, cs)
					}
					t.Logf("replay codes %v, cache %+v", replay, *cs)
				})
			}
		}
	}
}

// TestTopologyKillMidBurst: a replica killed in the middle of a burst
// keeps availability at ≥ 99% with every 200 bit-clean; its breaker
// opens, and once the replica is revived on its address a probe closes
// the breaker again.
func TestTopologyKillMidBurst(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			rc := chaosRouter(t)
			rc.Breaker = resilience.BreakerConfig{FailureThreshold: 1, OpenFor: 50 * time.Millisecond}
			tp := newTopology(t, topoConfig{replicas: n, router: rc})
			const requests = 400
			codes := burst(requests, 6, 100, func() { tp.kill(0) }, tp.mixedCall(11, []string{""}, 4))
			if a := availability(codes, requests); a < 0.99 {
				t.Errorf("availability %.3f through a replica kill, want >= 0.99: %v", a, codes)
			}
			if b := tp.router.Snapshot().Replicas[0].Breaker; b.Opens == 0 {
				t.Fatalf("killed replica's breaker never opened: %+v", b)
			}

			tp.revive(0)
			tp.untilBreakerCloses(0, tp.mixedCall(12, []string{""}, 4), 0)
		})
	}
}
