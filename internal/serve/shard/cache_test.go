package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"finbench/internal/serve"
	"finbench/internal/serve/pricecache"
)

// TestRouterCacheHitByteIdentity: through the router, a cache-hit 200
// must be byte-identical to the cold routed 200 — the stored bytes are a
// replica's verbatim answer, and the routed-bit-identity invariant makes
// any replica's answer the answer.
func TestRouterCacheHitByteIdentity(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 2, router: Config{CacheBytes: 1 << 20}})

	body := priceBody("", 4)
	respCold, cold := post(t, tp.front.URL, "/price", body)
	if respCold.StatusCode != 200 {
		t.Fatalf("cold status %d: %s", respCold.StatusCode, cold)
	}
	if got := respCold.Header.Get(pricecache.Header); got != "miss" {
		t.Fatalf("cold %s = %q, want miss", pricecache.Header, got)
	}
	if respCold.Header.Get("X-Finserve-Replica") == "" {
		t.Error("leader 200 missing routing headers")
	}

	respHit, hit := post(t, tp.front.URL, "/price", body)
	if respHit.StatusCode != 200 {
		t.Fatalf("hit status %d: %s", respHit.StatusCode, hit)
	}
	if got := respHit.Header.Get(pricecache.Header); got != "hit" {
		t.Fatalf("hit %s = %q, want hit", pricecache.Header, got)
	}
	if respHit.Header.Get("X-Finserve-Replica") != "" {
		t.Error("cache hit claims a serving replica")
	}
	if !bytes.Equal(cold, hit) {
		t.Fatalf("router cache hit differs from cold 200:\ncold: %s\nhit:  %s", cold, hit)
	}

	snap := tp.router.Snapshot()
	if snap.Cache == nil || snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Fatalf("router cache stats = %+v", snap.Cache)
	}
}

// TestRouterCacheBypasses pins the router-tier cacheability rule: Monte
// Carlo and the lattice methods bypass; undecodable bodies bypass (and
// still reach a backend for its 400).
func TestRouterCacheBypasses(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 1, router: Config{CacheBytes: 1 << 20}})

	for _, method := range []string{"monte-carlo", "binomial-tree"} {
		for i := 0; i < 2; i++ {
			resp, body := post(t, tp.front.URL, "/price", priceBody(method, 2))
			if resp.StatusCode != 200 {
				t.Fatalf("%s status %d: %s", method, resp.StatusCode, body)
			}
			if got := resp.Header.Get(pricecache.Header); got != "bypass" {
				t.Fatalf("%s request %d: %s = %q, want bypass", method, i, pricecache.Header, got)
			}
		}
	}
	resp, _ := post(t, tp.front.URL, "/price", []byte(`{"options":`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("undecodable body status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(pricecache.Header); got != "bypass" {
		t.Fatalf("undecodable body %s = %q, want bypass", pricecache.Header, got)
	}
	if snap := tp.router.Snapshot(); snap.Cache.Entries != 0 {
		t.Fatalf("bypass traffic entered the cache: %+v", snap.Cache)
	}
}

// TestRouterCacheCollapse: concurrent identical closed-form requests
// while the leader routes must collapse to one backend exchange. The
// leader's exchange is held at the backend's door until the whole burst
// has entered the router, so followers park on its flight by
// construction, not by how long a replica happens to take. (The cache
// counts a collapse only once the flight lands; a straggler still
// decoding at that instant is a hit, which is the cache's contract.)
func TestRouterCacheCollapse(t *testing.T) {
	backend := serve.New(serve.Config{})
	defer backend.Close()
	gate := make(chan struct{})
	arrived := make(chan struct{}, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/price" {
			arrived <- struct{}{}
			<-gate
		}
		backend.ServeHTTP(w, r)
	}))
	defer hs.Close()
	router := newRouter(t, Config{Backends: []string{hs.URL}, CacheBytes: 1 << 20})
	front := httptest.NewServer(router)
	defer front.Close()

	body := priceBody("", 64)
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := post(t, front.URL, "/price", body)
			if resp.StatusCode == 200 {
				bodies[i] = b
			}
		}(i)
	}
	<-arrived
	for router.Snapshot().Requests != n {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	snap := router.Snapshot()
	if snap.Cache.Misses != 1 {
		t.Fatalf("burst routed %d backend exchanges, want 1: %+v", snap.Cache.Misses, snap.Cache)
	}
	if snap.Cache.Collapsed == 0 || snap.Cache.Collapsed+snap.Cache.Hits != n-1 {
		t.Fatalf("burst of %d: want one collapse at least and %d collapses + hits: %+v", n, n-1, snap.Cache)
	}
	var ref []byte
	for i, b := range bodies {
		if b == nil {
			t.Fatalf("request %d failed", i)
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatalf("burst responses differ")
		}
	}
}

// TestRouterCacheRejectedNotShared: a closed-form /price the router keys
// but the replica rejects (400: binomial_steps above its 16,384 cap) is
// neither stored nor shared — each identical post reaches a replica and
// gets that replica's own answer.
func TestRouterCacheRejectedNotShared(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 1, router: Config{CacheBytes: 1 << 20}})

	body := []byte(`{"options":[{"spot":100,"strike":100,"expiry":1}],"config":{"binomial_steps":16385}}`)
	if _, ok := bodyKey(body); !ok {
		t.Fatal("router does not key the request; the leader path is not exercised")
	}
	for i := 0; i < 2; i++ {
		resp, out := post(t, tp.front.URL, "/price", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("post %d: status %d, want 400: %s", i, resp.StatusCode, out)
		}
		if got := resp.Header.Get(pricecache.Header); got != "miss" {
			t.Fatalf("post %d: %s = %q, want miss", i, pricecache.Header, got)
		}
		if resp.Header.Get("X-Finserve-Replica") == "" {
			t.Fatalf("post %d was not answered by a replica", i)
		}
	}
	if c := tp.router.Snapshot().Cache; c.Misses != 2 || c.Bytes != 0 || c.Entries != 0 {
		t.Fatalf("rejected request entered the cache: %+v", c)
	}
}

// bodyKey is the router's cache key for a JSON /price body: the one wire
// decode sniffPrice runs with the cache on.
func bodyKey(body []byte) (pricecache.Key, bool) {
	_, _, key, ok := sniffPrice(body, true)
	return key, ok
}

// TestRouterCacheKeyCanonicalization: the router key builder inherits
// the digest equivalences and excludes transport fields (deadline_ms).
func TestRouterCacheKeyCanonicalization(t *testing.T) {
	a, okA := bodyKey([]byte(`{"options":[{"spot":100,"strike":95,"expiry":1}]}`))
	b, okB := bodyKey([]byte(`{"method":"closed-form","options":[{"type":"call","style":"european","spot":100,"strike":95,"expiry":1}]}`))
	if !okA || !okB || a != b {
		t.Fatal("canonically equal bodies keyed differently")
	}
	c, okC := bodyKey([]byte(`{"options":[{"spot":100,"strike":95,"expiry":1}],"deadline_ms":250}`))
	if !okC || a != c {
		t.Fatal("deadline_ms must not affect the content address")
	}
	d, okD := bodyKey([]byte(`{"options":[{"type":"put","spot":100,"strike":95,"expiry":1}]}`))
	if !okD || a == d {
		t.Fatal("put keyed same as call")
	}
	// The config is echoed in the 200, so it is part of the address.
	e, okE := bodyKey([]byte(`{"options":[{"spot":100,"strike":95,"expiry":1}],"config":{"seed":7}}`))
	if !okE || a == e {
		t.Fatal("a config change did not re-key")
	}
	if _, ok := bodyKey([]byte(`{"method":"monte-carlo","options":[{"spot":100,"strike":95,"expiry":1}]}`)); ok {
		t.Fatal("monte-carlo body classified cacheable")
	}
	if _, ok := bodyKey([]byte(`{"method":"trinomial-tree","options":[{"spot":100,"strike":95,"expiry":1}]}`)); ok {
		t.Fatal("lattice body classified cacheable")
	}
	if _, ok := bodyKey([]byte(`garbage`)); ok {
		t.Fatal("undecodable body classified cacheable")
	}
}

// TestRouterCacheAllBackendsDownWaitersFail: when no replica is
// routable, the leader fails with errNoReplica mapped to 503 and a
// concurrent waiter must re-dispatch and fail the same way under its own
// deadline — never hang on the dead flight.
func TestRouterCacheAllBackendsDownWaitersFail(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 1, router: Config{
		CacheBytes:     1 << 20,
		HealthInterval: time.Hour, // freeze the optimistic healthy state
	}})
	tp.https[0].Close() // kill the only backend after boot

	body := priceBody("", 2)
	const n = 4
	var wg sync.WaitGroup
	codes := make([]int, n)
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := post(t, tp.front.URL, "/price", body)
			codes[i] = resp.StatusCode
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("requests hung with all backends down")
	}
	for i, code := range codes {
		if code == 200 {
			t.Errorf("request %d got 200 with all backends down", i)
		}
	}
	if snap := tp.router.Snapshot(); snap.Cache.Entries != 0 {
		t.Fatalf("failure entered the cache: %+v", snap.Cache)
	}
}

// TestRouterCacheVsDirectBitIdentical: a router cache hit equals the
// direct single-backend answer modulo the volatile elapsed_us — checked
// structurally like TestRoutedBitIdentical.
func TestRouterCacheVsDirectBitIdentical(t *testing.T) {
	tp := newTopology(t, topoConfig{replicas: 2, router: Config{CacheBytes: 1 << 20}})

	body := priceBody("", 8)
	post(t, tp.front.URL, "/price", body) // warm
	resp, hit := post(t, tp.front.URL, "/price", body)
	if resp.StatusCode != 200 || resp.Header.Get(pricecache.Header) != "hit" {
		t.Fatalf("warm request: status %d header %q", resp.StatusCode, resp.Header.Get(pricecache.Header))
	}
	dresp, direct := post(t, tp.https[0].URL, "/price", body)
	if dresp.StatusCode != 200 {
		t.Fatalf("direct status %d", dresp.StatusCode)
	}
	var a, b serve.PriceResponse
	if err := json.Unmarshal(hit, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(direct, &b); err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("result count %d vs %d", len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if a.Results[i].Price != b.Results[i].Price {
			t.Errorf("option %d: cached %v direct %v", i, a.Results[i].Price, b.Results[i].Price)
		}
	}
	if a.Method != b.Method || a.Config != b.Config {
		t.Errorf("effective config differs: %+v vs %+v", a, b)
	}
}
