package shard

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"finbench/internal/resilience"
	"finbench/internal/serve"
	"finbench/internal/serve/pricecache"
)

// replayBody is a rewindable io.ReadCloser over a fixed byte slice.
type replayBody struct {
	b []byte
	i int
}

func (r *replayBody) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

func (r *replayBody) Close() error { return nil }

// nullRecorder is a reusable http.ResponseWriter that drops the body.
type nullRecorder struct {
	header http.Header
	code   int
}

func (r *nullRecorder) Header() http.Header         { return r.header }
func (r *nullRecorder) Write(p []byte) (int, error) { return len(p), nil }
func (r *nullRecorder) WriteHeader(c int)           { r.code = c }

// TestRouterCacheHitAllocBytes bounds what a router cache hit allocates:
// the sized body read (len(body), rounded up by the allocator) plus at
// most 16 KiB for everything else. The body is decoded once into a
// pooled request, keyed from a pooled contract slice on a stack-buffered
// digest, and answered from stored bytes — no ReadAll doubling, no
// encoding/json scan state, no per-request contract slice.
func TestRouterCacheHitAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tp := newReplicas(t, topoConfig{replicas: 1})
	router := newRouter(t, Config{Backends: tp.urls(), CacheBytes: 8 << 20, HealthInterval: time.Hour})
	for _, n := range []int{16, 1024} {
		body := priceBody("", n)
		rb := &replayBody{b: body}
		req := httptest.NewRequest(http.MethodPost, "/price", rb)
		req.Header.Set("Content-Type", "application/json")
		req.ContentLength = int64(len(body))
		rec := &nullRecorder{header: make(http.Header)}
		call := func() {
			rb.i = 0
			rec.code = 0
			router.ServeHTTP(rec, req)
		}
		for i := 0; i < 8; i++ { // the first call leads and stores; the rest warm the pools
			call()
			if rec.code != http.StatusOK {
				t.Fatalf("%d options: warm-up status %d", n, rec.code)
			}
		}
		if got := rec.header.Get(pricecache.Header); got != "hit" {
			t.Fatalf("%d options: %s = %q after warm-up, want hit", n, pricecache.Header, got)
		}

		const runs = 64
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		perReq := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%d options: %d-byte body, %d B allocated per hit", n, len(body), perReq)
		if limit := uint64(len(body)) + 16<<10; perReq > limit {
			t.Errorf("%d options (%d-byte body): router cache hit allocates %d B/request, want <= %d",
				n, len(body), perReq, limit)
		}
	}
}

// wideBody is a closed-form /price body with full-precision terms, the
// ~90 bytes per option a real client (and the benchmark) sends.
func wideBody(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"options":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		typ := "call"
		if i%3 == 0 {
			typ = "put"
		}
		fmt.Fprintf(&b, `{"type":%q,"spot":%v,"strike":%v,"expiry":%v}`,
			typ, 80+float64(i%97)*0.4137251983, 100-float64(i%31)*0.7312096457, 0.05+float64(i%53)*0.0371190263)
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

// BenchmarkRoutedPriceRead splits the router's per-request read path at
// 1024 options into the pieces the one-decode change replaced, old
// (the oracle listings) beside new.
func BenchmarkRoutedPriceRead(b *testing.B) {
	body := wideBody(1024)
	for _, bc := range []struct {
		name string
		fn   func()
	}{
		{"sniff/encoding-json", func() { oracleSniff(body) }},
		{"key/second-decode", func() { oracleRouterCacheKey(body) }},
		{"sniff+key/one-decode", func() { sniffPrice(body, true) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fn()
			}
		})
	}
}

// BenchmarkRouterCacheHitLoopback is one router cache hit over loopback
// HTTP at 1024 options: client encode-free POST, router read + key +
// lookup + write, client read.
func BenchmarkRouterCacheHitLoopback(b *testing.B) {
	backend := serve.New(serve.Config{})
	defer backend.Close()
	bs := httptest.NewServer(backend.Handler())
	defer bs.Close()
	router, err := New(Config{Backends: []string{bs.URL}, CacheBytes: 8 << 20, HealthInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	router.Start()
	defer router.Close()
	front := httptest.NewServer(router)
	defer front.Close()

	body := wideBody(1024)
	post := func() {
		resp, err := http.Post(front.URL+"/price", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// TestPickTieGoesToFirstRoutableReplica pins the pick's tie-break: among
// equally scored replicas the first routable one in replica order wins
// (a strict < over the replica list). With at most one request in flight
// every replica scores 0, so replica 0 serves nearly all of a low-
// concurrency workload — shard.replica_balance reads well below 1 on the
// cached benchmark by design, not by accident.
func TestPickTieGoesToFirstRoutableReplica(t *testing.T) {
	r, err := New(Config{Backends: []string{"http://a.invalid", "http://b.invalid", "http://c.invalid"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pickOne := func() *replica {
		st := &routeResult{excluded: map[*replica]bool{}}
		rep := r.pick(st)
		if rep != nil {
			rep.breaker.Success()
		}
		return rep
	}

	if got := pickOne(); got != r.replicas[0] {
		t.Fatalf("all idle: picked %v, want replica 0", got.url)
	}
	// Equal nonzero load: still replica order.
	for _, rep := range r.replicas {
		rep.loadUnits.Store(5)
	}
	if got := pickOne(); got != r.replicas[0] {
		t.Fatalf("equal load: picked %v, want replica 0", got.url)
	}
	// The first routable replica wins when replica 0 is out.
	r.replicas[0].healthy.Store(false)
	if got := pickOne(); got != r.replicas[1] {
		t.Fatalf("replica 0 unhealthy: picked %v, want replica 1", got.url)
	}
	// A strictly lower score beats replica order.
	r.replicas[0].healthy.Store(true)
	r.replicas[2].loadUnits.Store(4)
	if got := pickOne(); got != r.replicas[2] {
		t.Fatalf("replica 2 least loaded: picked %v, want replica 2", got.url)
	}
}

// TestPickSkipsRefusingBreaker: when the best-scored replica's breaker
// refuses — half-open with its one probe slot already taken — pick moves
// on to another live replica instead of returning none.
func TestPickSkipsRefusingBreaker(t *testing.T) {
	now := time.Now()
	r, err := New(Config{
		Backends: []string{"http://a.invalid", "http://b.invalid"},
		Breaker:  resilience.BreakerConfig{Now: func() time.Time { return now }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Replica 0 trips, then its open window passes and one probe takes
	// the half-open slot. It still scores best (replica 1 carries load).
	for i := 0; i < 5; i++ {
		r.replicas[0].breaker.Failure()
	}
	now = now.Add(2 * time.Second)
	if !r.replicas[0].breaker.Allow() {
		t.Fatal("half-open breaker refused its first probe")
	}
	r.replicas[1].loadUnits.Store(5)
	for i := 0; i < 3; i++ {
		st := &routeResult{excluded: map[*replica]bool{}}
		if got := r.pick(st); got != r.replicas[1] {
			t.Fatalf("pick %d with replica 0's probe out: got %v, want replica 1", i, got)
		}
	}
	// With every live replica refusing, pick finds none.
	r.replicas[1].healthy.Store(false)
	st := &routeResult{excluded: map[*replica]bool{}}
	if got := r.pick(st); got != nil {
		t.Fatalf("only a refusing replica left: picked %v, want none", got.url)
	}
}

// TestPickFailedReplicaOnlyAsLastResort: a replica this request already
// failed on is picked only when no other routable replica exists, however
// well it scores.
func TestPickFailedReplicaOnlyAsLastResort(t *testing.T) {
	r, err := New(Config{Backends: []string{"http://a.invalid", "http://b.invalid", "http://c.invalid"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pickOne := func(st *routeResult) *replica {
		rep := r.pick(st)
		if rep != nil {
			rep.breaker.Success()
		}
		return rep
	}
	// Replica 0 is idle and failed this request; the others carry load.
	r.replicas[1].loadUnits.Store(7)
	r.replicas[2].loadUnits.Store(5)
	st := &routeResult{excluded: map[*replica]bool{r.replicas[0]: true}}
	if got := pickOne(st); got != r.replicas[2] {
		t.Fatalf("replica 0 failed this request: picked %v, want replica 2 (least loaded of the rest)", got.url)
	}
	// An unroutable alternative does not count: with replica 2 unhealthy,
	// replica 1 is still preferred over the failed replica 0.
	r.replicas[2].healthy.Store(false)
	if got := pickOne(st); got != r.replicas[1] {
		t.Fatalf("replica 2 unhealthy: picked %v, want replica 1", got.url)
	}
	// With replica 1 failed too, the failed replicas are all that is left.
	st.excluded[r.replicas[1]] = true
	if got := pickOne(st); got != r.replicas[0] {
		t.Fatalf("every routable replica failed this request: picked %v, want replica 0 (least loaded)", got)
	}
	// A fresh request ignores the first one's failures.
	r.replicas[2].healthy.Store(true)
	if got := pickOne(&routeResult{excluded: map[*replica]bool{}}); got != r.replicas[0] {
		t.Fatalf("fresh request: picked %v, want replica 0", got.url)
	}
}

// TestLoneReplicaTransient5xxRetried: a lone replica that answers one
// transient 500 gets a backoff-spaced retry on the same replica, and the
// client sees the retry's 200 with the attempt count in its headers. The
// router's first request is exchange 1, so its first retry waits
// jitterSeed(1, 0)'s first delay.
func TestLoneReplicaTransient5xxRetried(t *testing.T) {
	backoff := resilience.Backoff{Seed: jitterSeed(1, 0)}.Delay(0)
	arrivals := make(chan time.Time, maxAttempts) // one slot per attempt, so the handler never blocks
	var calls atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok","in_flight_units":0,"max_units":1,"queue_depth":0,"uptime_s":1}`)
			return
		}
		arrivals <- time.Now()
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"results":[{"price":1}],"method":"closed-form","config":{},"engine":"scalar","elapsed_us":1}`)
	}))
	defer stub.Close()
	router := newRouter(t, Config{
		Backends:       []string{stub.URL},
		HealthInterval: time.Hour,
	})
	front := httptest.NewServer(router)
	defer front.Close()

	resp, body := post(t, front.URL, "/price", priceBody("", 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d %s, want the retry's 200", resp.StatusCode, body)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("replica saw %d attempts, want 2", n)
	}
	first, second := <-arrivals, <-arrivals
	if gap := second.Sub(first); gap < backoff {
		t.Errorf("retry came %v after the 500, want >= the %v backoff", gap, backoff)
	}
	for h, want := range map[string]string{
		"X-Finserve-Replica":  stub.URL,
		"X-Finserve-Attempts": "2",
		"X-Finserve-Retries":  "1",
	} {
		if got := resp.Header.Get(h); got != want {
			t.Errorf("%s = %q, want %q", h, got, want)
		}
	}
	if got := router.Snapshot().Retries; got != 1 {
		t.Errorf("router retries = %d, want 1", got)
	}
}

// TestRetryJitterDecorrelated: no two exchanges of a router wait the
// same retry delays — not successive requests, not the partitions of one
// scattered /scenario, not a /stream subscription and the request that
// shares its number — so exchanges retrying against one shedding replica
// spread out instead of arriving again together. Delay is a pure
// function of the seed and the attempt, so this is exact: no clock runs.
func TestRetryJitterDecorrelated(t *testing.T) {
	seen := make(map[[maxAttempts - 1]time.Duration]string)
	add := func(name string, seed uint64) {
		b := resilience.Backoff{Seed: seed}
		var delays [maxAttempts - 1]time.Duration
		for attempt := range delays {
			delays[attempt] = b.Delay(attempt)
		}
		if prev, ok := seen[delays]; ok {
			t.Fatalf("%s waits the same delays as %s: %v", name, prev, delays)
		}
		seen[delays] = name
	}
	for n := uint64(1); n <= 2048; n++ {
		add(fmt.Sprintf("request %d", n), jitterSeed(n, 0))
		for part := 1; part <= 3; part++ {
			add(fmt.Sprintf("request %d partition %d", n, part), jitterSeed(n, part))
		}
		add(fmt.Sprintf("stream %d", n), jitterSeed(^n, 0))
	}
}
