package serve

import (
	"bytes"
	"net/http"
	"sync"
	"testing"
	"time"

	"finbench"
	"finbench/internal/serve/pricecache"
)

func cacheConfig() Config {
	return Config{
		CacheBytes:       1 << 20,
		CoalesceMaxBatch: 1, // bypass the coalescer: deterministic timing
		ProfileEvery:     -1,
	}
}

func priceBody(n int) *PriceRequest {
	req := &PriceRequest{Options: make([]WireOption, n)}
	for i := range req.Options {
		req.Options[i] = WireOption{Spot: 100 + float64(i), Strike: 100, Expiry: 1}
	}
	return req
}

// TestCacheHitByteIdentity is the bit-identity regression test: the
// cache-hit 200 must be byte-for-byte identical to the cold 200 for the
// same request, and both must verify against the library from the echoed
// effective config.
func TestCacheHitByteIdentity(t *testing.T) {
	s, ts := newTestServer(t, cacheConfig())
	req := priceBody(4)
	req.Options[1].Type = "put"

	respCold, coldBody := postJSON(t, ts.URL+"/price", req)
	if respCold.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", respCold.StatusCode, coldBody)
	}
	if got := respCold.Header.Get(pricecache.Header); got != "miss" {
		t.Fatalf("cold %s header = %q, want miss", pricecache.Header, got)
	}

	respHit, hitBody := postJSON(t, ts.URL+"/price", req)
	if respHit.StatusCode != http.StatusOK {
		t.Fatalf("hit status %d: %s", respHit.StatusCode, hitBody)
	}
	if got := respHit.Header.Get(pricecache.Header); got != "hit" {
		t.Fatalf("hit %s header = %q, want hit", pricecache.Header, got)
	}
	if !bytes.Equal(coldBody, hitBody) {
		t.Fatalf("cache hit differs from cold response:\ncold: %s\nhit:  %s", coldBody, hitBody)
	}
	verifyAgainstLibrary(t, s.cfg.Market, req, decodePrice(t, hitBody))

	st := s.cache.Snapshot()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

// TestCacheMonteCarloBypasses pins the cacheability decision: Monte Carlo
// results depend on the batch decomposition, so MC requests must never
// enter the cache — not as a miss, not as a hit.
func TestCacheMonteCarloBypasses(t *testing.T) {
	s, ts := newTestServer(t, cacheConfig())
	req := priceBody(1)
	req.Method = "monte-carlo"
	req.Config.MCPaths = 1024

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/price", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get(pricecache.Header); got != "bypass" {
			t.Fatalf("request %d: %s header = %q, want bypass", i, pricecache.Header, got)
		}
	}
	st := s.cache.Snapshot()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("monte-carlo touched the cache: %+v", st)
	}
}

// Lattice methods are deterministic but conservatively uncached (the
// standing invariant sanctions caching for LevelAdvanced closed-form
// today); pin that they bypass too.
func TestCacheLatticeBypasses(t *testing.T) {
	s, ts := newTestServer(t, cacheConfig())
	req := priceBody(1)
	req.Method = "binomial-tree"
	resp, body := postJSON(t, ts.URL+"/price", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(pricecache.Header); got != "bypass" {
		t.Fatalf("%s header = %q, want bypass", pricecache.Header, got)
	}
	if st := s.cache.Snapshot(); st.Entries != 0 {
		t.Fatalf("lattice entered the cache: %+v", st)
	}
}

// TestCacheDisabledNoHeader: default config leaves the cache off and the
// wire format untouched (no X-Finserve-Cache header, elapsed_us live).
func TestCacheDisabledNoHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{CoalesceMaxBatch: 1, ProfileEvery: -1})
	resp, body := postJSON(t, ts.URL+"/price", priceBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(pricecache.Header); got != "" {
		t.Fatalf("cache disabled but %s header = %q", pricecache.Header, got)
	}
}

// TestCacheConfigChangeRekeys: the same contract batch under a different
// effective config must miss (the config is part of the content address),
// and both variants stay byte-stable.
func TestCacheConfigChangeRekeys(t *testing.T) {
	s, ts := newTestServer(t, cacheConfig())
	req := priceBody(2)
	_, body1 := postJSON(t, ts.URL+"/price", req)

	req2 := priceBody(2)
	req2.Config.Seed = 7 // echoed in the response, so a different body
	resp2, body2 := postJSON(t, ts.URL+"/price", req2)
	if got := resp2.Header.Get(pricecache.Header); got != "miss" {
		t.Fatalf("config-changed request header = %q, want miss", got)
	}
	if bytes.Equal(body1, body2) {
		t.Fatal("different effective configs produced the same body")
	}
	if st := s.cache.Snapshot(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("cache stats = %+v", st)
	}
}

// TestCacheCollapse: identical concurrent requests while a slow leader
// computes must collapse onto one computation. The leader is made to
// dwell deterministically: the test holds every admission unit, so the
// leader parks in adm.acquire until the whole burst has piled onto its
// flight. (The cache counts a collapse only once the flight lands, so
// the wait is on the handlers having entered and the leader having
// parked; a straggler still decoding when the flight lands is served as a
// hit, which is the cache's contract and is allowed for below.)
func TestCacheCollapse(t *testing.T) {
	cfg := cacheConfig()
	cfg.AdmitWait = time.Minute
	s, ts := newTestServer(t, cfg)
	held, ok := s.adm.acquire(s.cfg.MaxUnits, 0)
	if !ok {
		t.Fatal("could not pre-acquire the admission budget")
	}

	req := priceBody(3)
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/price", req)
			if resp.StatusCode == http.StatusOK {
				bodies[i] = body
			}
		}(i)
	}
	for s.stats.priceRequests.Load() != n || s.adm.queued() != 1 {
		time.Sleep(time.Millisecond)
	}
	s.adm.release(held)
	wg.Wait()

	st := s.cache.Snapshot()
	if st.Collapsed == 0 || st.Collapsed+st.Hits != n-1 {
		t.Fatalf("burst of %d: %d collapsed + %d hits, want %d in all and a collapse: %+v", n, st.Collapsed, st.Hits, n-1, st)
	}
	if st.Misses != 1 {
		t.Fatalf("burst ran %d computations, want 1: %+v", st.Misses, st)
	}
	var ref []byte
	for i, b := range bodies {
		if b == nil {
			t.Fatalf("request %d failed", i)
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatalf("burst responses differ:\n%s\n%s", ref, b)
		}
	}
}

// TestCacheStatszSnapshot: counters surface under the "cache" key and the
// snapshot marshals deterministically (struct field order).
func TestCacheStatszSnapshot(t *testing.T) {
	s, ts := newTestServer(t, cacheConfig())
	req := priceBody(1)
	postJSON(t, ts.URL+"/price", req)
	postJSON(t, ts.URL+"/price", req)

	snap := s.statszSnapshot()
	if snap.Cache == nil {
		t.Fatal("statsz missing cache block with caching enabled")
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 || snap.Cache.Entries != 1 {
		t.Fatalf("statsz cache block = %+v", snap.Cache)
	}
	if snap.Cache.MaxBytes != 1<<20 {
		t.Fatalf("max_bytes = %d", snap.Cache.MaxBytes)
	}

	off, tsOff := newTestServer(t, Config{CoalesceMaxBatch: 1, ProfileEvery: -1})
	_ = tsOff
	if snap := off.statszSnapshot(); snap.Cache != nil {
		t.Fatal("statsz reports cache block with caching disabled")
	}
}

// TestCacheKeyMatchesDigestCanonicalization: the server-side key builder
// inherits the canonicalizer's equivalences ("" == "call"/"european").
func TestCacheKeyMatchesDigestCanonicalization(t *testing.T) {
	s := New(cacheConfig())
	defer s.Close()
	var base finbench.Config
	cfg := base.Resolved()
	a := &PriceRequest{Options: []WireOption{{Type: "call", Style: "european", Spot: 100, Strike: 95, Expiry: 1}}}
	b := &PriceRequest{Options: []WireOption{{Spot: 100, Strike: 95, Expiry: 1}}}
	if s.cacheKey(a, cfg) != s.cacheKey(b, cfg) {
		t.Fatal("canonically equal requests keyed differently")
	}
	c := &PriceRequest{Options: []WireOption{{Type: "put", Spot: 100, Strike: 95, Expiry: 1}}}
	if s.cacheKey(a, cfg) == s.cacheKey(c, cfg) {
		t.Fatal("put keyed same as call")
	}
}
