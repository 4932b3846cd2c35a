package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"finbench"
	"finbench/internal/serve"
	"finbench/internal/serve/stream"
)

// smallStreamCfg is a small hub configuration. Replicas built from one
// configuration share its seed, so their universes agree — the routed
// feed's contract ids mean the same thing on every replica.
func smallStreamCfg(universe int) stream.Config {
	return stream.Config{Universe: universe, Underlyings: 8, Interval: 2 * time.Millisecond}
}

// getStream opens base+"/stream"+query with a 2 s budget for the
// response headers, so a router that never answers fails the test
// instead of hanging it.
func getStream(t *testing.T, base, query string) *http.Response {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: 2 * time.Second}}
	resp, err := client.Get(base + "/stream" + query)
	if err != nil {
		t.Fatalf("GET /stream%s: %v", query, err)
	}
	return resp
}

// readHello reads a stream's first frame, which must be a hello.
func readHello(t *testing.T, fr *stream.FrameReader) stream.Frame {
	t.Helper()
	f, err := fr.Next()
	if err != nil || f.Event != stream.EventHello {
		t.Fatalf("first frame = %+v, %v — want hello", f, err)
	}
	return f
}

// TestRoutedStreamWholeUniverseMatchesLone: a subscription with no
// contracts= or ids= is the whole universe, resolved by the replica —
// routed, it opens with the same hello a lone replica sends (subscribed =
// universe), and its first snapshot covers every contract, each bit-equal
// to a cold repricing.
func TestRoutedStreamWholeUniverseMatchesLone(t *testing.T) {
	hcfg := smallStreamCfg(64)
	tp := newTopology(t, topoConfig{replicas: 2, serve: serve.Config{Stream: &hcfg}, router: Config{HealthInterval: 20 * time.Millisecond}})

	lone := getStream(t, tp.https[0].URL, "")
	defer lone.Body.Close()
	routed := getStream(t, tp.front.URL, "")
	defer routed.Body.Close()
	if lone.StatusCode != http.StatusOK || routed.StatusCode != http.StatusOK {
		t.Fatalf("/stream: lone %d, routed %d — want 200 both", lone.StatusCode, routed.StatusCode)
	}
	want := readHello(t, stream.NewFrameReader(lone.Body))
	fr := stream.NewFrameReader(routed.Body)
	got := readHello(t, fr)
	if !bytes.Equal(got.Data, want.Data) {
		t.Errorf("routed hello %s, lone hello %s", got.Data, want.Data)
	}
	var hello stream.Hello
	if err := json.Unmarshal(got.Data, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Subscribed != hcfg.Universe {
		t.Errorf("hello subscribed = %d, want the universe (%d)", hello.Subscribed, hcfg.Universe)
	}

	f, err := fr.Next()
	if err != nil || f.Event != stream.EventSnapshot {
		t.Fatalf("second frame = %+v, %v — want the initial snapshot", f, err)
	}
	var ev stream.Event
	if err := json.Unmarshal(f.Data, &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Contracts) != hcfg.Universe {
		t.Errorf("initial snapshot covers %d contracts, want %d", len(ev.Contracts), hcfg.Universe)
	}
	b := finbench.NewBatch(1)
	for _, e := range ev.Contracts {
		if err := verifyEntryCold(b, e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoutedStream4xxLeavesBreakersClosed: a subscription the replicas
// reject is the request's fault. Every routed attempt answers the
// replica's own 400 at once, no breaker counts it as a failure, and
// /price keeps routing.
func TestRoutedStream4xxLeavesBreakersClosed(t *testing.T) {
	hcfg := smallStreamCfg(64)
	tp := newTopology(t, topoConfig{replicas: 2, serve: serve.Config{Stream: &hcfg}, router: Config{HealthInterval: 20 * time.Millisecond}})

	query := fmt.Sprintf("?ids=%d", hcfg.Universe) // one past the last id
	lone := getStream(t, tp.https[0].URL, query)
	want, _ := io.ReadAll(lone.Body)
	lone.Body.Close()
	if lone.StatusCode != http.StatusBadRequest {
		t.Fatalf("lone /stream%s = %d, want 400", query, lone.StatusCode)
	}
	for i := 0; i < 20; i++ {
		resp := getStream(t, tp.front.URL, query)
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Equal(got, want) {
			t.Fatalf("routed /stream%s #%d = %d %q, want the replica's 400 %q", query, i, resp.StatusCode, got, want)
		}
	}
	for _, rs := range tp.router.Snapshot().Replicas {
		if rs.Breaker.State != "closed" || rs.Breaker.Failures != 0 || rs.Breaker.Opens != 0 {
			t.Errorf("replica %s breaker after rejected subscriptions: %+v", rs.URL, rs.Breaker)
		}
	}
	if resp, body := post(t, tp.front.URL, "/price", priceBody("", 2)); resp.StatusCode != http.StatusOK {
		t.Errorf("routed /price after rejected subscriptions = %d %s", resp.StatusCode, body)
	}
}

// verifyEntryCold recomputes one pushed entry from its echoed inputs
// and requires bit-equality of the price and every Greek — the
// routed-bits-identical invariant, extended to the feed.
func verifyEntryCold(b *finbench.Batch, e stream.Entry) error {
	b.Spots[0], b.Strikes[0], b.Expiries[0] = e.Spot, e.Strike, e.Expiry
	mkt := finbench.Market{Rate: e.Rate, Volatility: e.Vol}
	if err := finbench.PriceBatchCtx(context.Background(), b, mkt, finbench.LevelAdvanced); err != nil {
		return fmt.Errorf("contract %d: cold repricing: %w", e.ID, err)
	}
	opt := finbench.Option{Spot: e.Spot, Strike: e.Strike, Expiry: e.Expiry}
	g, err := finbench.ComputeGreeks(opt, mkt)
	if err != nil {
		return fmt.Errorf("contract %d: cold greeks: %w", e.ID, err)
	}
	want := stream.Entry{Price: b.Calls[0], Delta: g.DeltaCall, Gamma: g.Gamma, Vega: g.Vega, Theta: g.ThetaCall, Rho: g.RhoCall}
	if e.Type == "put" {
		want.Price, want.Delta, want.Theta, want.Rho = b.Puts[0], g.DeltaPut, g.ThetaPut, g.RhoPut
	}
	if !bitsEq(e.Price, want.Price) || !bitsEq(e.Delta, want.Delta) || !bitsEq(e.Gamma, want.Gamma) ||
		!bitsEq(e.Vega, want.Vega) || !bitsEq(e.Theta, want.Theta) || !bitsEq(e.Rho, want.Rho) {
		return fmt.Errorf("contract %d: pushed %+v, cold %+v", e.ID, e, want)
	}
	return nil
}

// TestRoutedStreamMergeAndFailover drives the whole routed-feed
// contract: the subscription opens with exactly one hello, the lost
// replica's goodbye is never forwarded, the stream re-subscribes to the
// survivor and resyncs with a fresh snapshot, and every forwarded value
// stays bit-identical to a cold repricing at its echoed inputs — through
// a drain, and through a kill of the replica serving the stream.
func TestRoutedStreamMergeAndFailover(t *testing.T) {
	for _, loss := range []string{"drain", "kill"} {
		t.Run(loss, func(t *testing.T) { testRoutedStreamFailover(t, loss) })
	}
}

func testRoutedStreamFailover(t *testing.T, loss string) {
	hcfg := smallStreamCfg(64)
	tp := newTopology(t, topoConfig{replicas: 2, serve: serve.Config{Stream: &hcfg},
		router: Config{HealthInterval: 20 * time.Millisecond}})

	before := tp.router.Snapshot().Replicas
	resp := getStream(t, tp.front.URL, "?contracts=0-63")
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("routed /stream = %d", resp.StatusCode)
	}
	fr := stream.NewFrameReader(resp.Body)
	f := readHello(t, fr)
	var hello stream.Hello
	if err := json.Unmarshal(f.Data, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Subscribed != 64 {
		t.Errorf("hello subscribed = %d, want the whole 64-contract subscription", hello.Subscribed)
	}

	b := finbench.NewBatch(1)
	seen := make(map[int]bool)
	var snapshots int
	// readUntil consumes frames until want(contract-coverage) holds,
	// verifying every entry and failing on any forwarded goodbye/hello.
	readUntil := func(phase string, want func() bool) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for !want() {
			type res struct {
				f   stream.Frame
				err error
			}
			ch := make(chan res, 1)
			go func() { f, err := fr.Next(); ch <- res{f, err} }()
			var r res
			select {
			case r = <-ch:
			case <-deadline:
				t.Fatalf("%s: coverage or resync never completed (saw %d contracts, %d snapshots)", phase, len(seen), snapshots)
			}
			if r.err != nil {
				t.Fatalf("%s: stream ended: %v", phase, r.err)
			}
			switch r.f.Event {
			case stream.EventHello:
				t.Fatalf("%s: duplicate hello forwarded", phase)
			case stream.EventGoodbye:
				t.Fatalf("%s: a replica goodbye leaked through the router", phase)
			case stream.EventSnapshot, stream.EventGreeks:
				if r.f.Event == stream.EventSnapshot {
					snapshots++
				}
				var ev stream.Event
				if err := json.Unmarshal(r.f.Data, &ev); err != nil {
					t.Fatalf("%s: %v", phase, err)
				}
				for _, e := range ev.Contracts {
					if err := verifyEntryCold(b, e); err != nil {
						t.Fatalf("%s: %v", phase, err)
					}
					seen[e.ID] = true
				}
			}
		}
	}

	full := func() bool { return len(seen) == 64 }
	readUntil("before kill", full)
	snapshotsBefore := snapshots

	// Lose the replica serving the stream — the one whose served count
	// rose with the subscription: a drain makes its hub push goodbye to
	// the relay; a kill resets the relay's connection.
	serving := -1
	for i, rs := range tp.router.Snapshot().Replicas {
		if rs.Served > before[i].Served {
			serving = i
		}
	}
	if serving < 0 {
		t.Fatalf("no replica holds the stream: %+v", tp.router.Snapshot().Replicas)
	}
	if loss == "drain" {
		tp.servers[serving].StartDrain()
	} else {
		tp.kill(serving)
	}

	// Frames queued before the loss can complete a coverage on their
	// own, so read until the resync snapshot has arrived too.
	seen = make(map[int]bool)
	readUntil("after the "+loss, func() bool { return full() && snapshots > snapshotsBefore })

	deadline := time.Now().Add(5 * time.Second)
	for tp.router.Snapshot().StreamResubscribes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("failover recorded no stream resubscription")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := tp.router.Snapshot().StreamRequests; got != 1 {
		t.Errorf("stream_requests = %d, want 1", got)
	}
}

// TestRoutedStreamHoldsNoInflight: an open routed stream is not a request
// outstanding on its replica. With one open on a 2-replica router, the
// router's /statsz shows every replica at inflight 0, so pick keeps
// scoring the serving replica on its load alone.
func TestRoutedStreamHoldsNoInflight(t *testing.T) {
	hcfg := smallStreamCfg(64)
	tp := newTopology(t, topoConfig{replicas: 2, serve: serve.Config{Stream: &hcfg}, router: Config{HealthInterval: 20 * time.Millisecond}})
	resp := getStream(t, tp.front.URL, "?contracts=0-7")
	defer resp.Body.Close()
	fr := stream.NewFrameReader(resp.Body)
	readHello(t, fr)
	if _, err := fr.Next(); err != nil {
		t.Fatalf("the stream ended after its hello: %v", err)
	}

	sresp, err := tp.client.Get(tp.front.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var snap StatszResponse
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	var served uint64
	for i, rs := range snap.Replicas {
		if rs.Inflight != 0 {
			t.Errorf("replica %d inflight = %d with only a stream open, want 0", i, rs.Inflight)
		}
		served += rs.Served
	}
	if served != 1 {
		t.Errorf("replicas served %d requests, want 1 (the subscription)", served)
	}
}

// TestRoutedStreamRouterStopSaysGoodbye: only the router's own stop ends
// a routed stream, and it does so with goodbye "draining".
func TestRoutedStreamRouterStopSaysGoodbye(t *testing.T) {
	hcfg := smallStreamCfg(64)
	tp := newTopology(t, topoConfig{replicas: 1, serve: serve.Config{Stream: &hcfg}, router: Config{HealthInterval: 20 * time.Millisecond}})
	resp := getStream(t, tp.front.URL, "?contracts=0-7")
	defer resp.Body.Close()
	fr := stream.NewFrameReader(resp.Body)
	readHello(t, fr)
	tp.router.Close()
	for {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("stream ended without a goodbye: %v", err)
		}
		if f.Event == stream.EventGoodbye {
			var bye stream.Goodbye
			if err := json.Unmarshal(f.Data, &bye); err != nil || bye.Reason != "draining" {
				t.Fatalf("goodbye %s, want reason draining", f.Data)
			}
			break
		}
	}
	if _, err := fr.Next(); err == nil {
		t.Error("the stream went on after the router's goodbye")
	}
}

// TestRoutedStreamSlowClientShed: a routed subscriber that stops reading
// is disconnected by the lone server's rule — its frame write misses
// streamWriteTimeout (2s) — while a second subscriber on the same replica
// keeps receiving. The replica writes under the same 2s deadline and may
// drop the stalled relay's upstream first; the router's own write to the
// client is blocked either way, and it is that write's miss that counts.
func TestRoutedStreamSlowClientShed(t *testing.T) {
	hcfg := smallStreamCfg(256)
	hcfg.SpotThreshold = -1 // every tick rewrites the universe
	hcfg.Budget = time.Second
	tp := newTopology(t, topoConfig{replicas: 1,
		serve:  serve.Config{Stream: &hcfg},
		router: Config{HealthInterval: 20 * time.Millisecond}})

	live := getStream(t, tp.front.URL, "")
	defer live.Body.Close()
	fr := stream.NewFrameReader(live.Body)
	readHello(t, fr)
	frames := make(chan struct{}, 1)
	ended := make(chan error, 1)
	go func() {
		for {
			f, err := fr.Next()
			if err == nil && f.Event == stream.EventGoodbye {
				err = fmt.Errorf("goodbye %s", f.Data)
			}
			if err != nil {
				ended <- err
				return
			}
			select {
			case frames <- struct{}{}:
			default:
			}
		}
	}()

	// A subscriber with a small receive buffer that never reads.
	conn, err := net.Dial("tcp", tp.front.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /stream HTTP/1.1\r\nHost: router\r\n\r\n")

	deadline := time.Now().Add(20 * time.Second)
	for tp.router.Snapshot().StreamSlowDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled routed subscriber was never disconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The stalled subscriber's relay is torn down: its upstream closes,
	// leaving the reading subscriber's as the replica's only one.
	for tp.replicaStatsz(0).Stream.Subscribers != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the stalled subscriber's upstream stayed open after its write deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The reading subscriber keeps receiving.
	for i := 0; i < 5; i++ {
		select {
		case <-frames:
		case err := <-ended:
			t.Fatalf("the reading subscriber's stream ended: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("the reading subscriber stopped receiving")
		}
	}
	if got := tp.router.Snapshot().StreamSlowDrops; got != 1 {
		t.Errorf("stream_slow_drops = %d, want 1 (only the stalled subscriber)", got)
	}
	live.Body.Close() // unstick the reader
}

// TestRoutedStreamRouterStopAnswers503: a subscription still waiting on a
// shedding replica when the router stops is answered 503 + Retry-After,
// not an empty 200: the stop cancels the exchange before any replica
// accepted the stream.
func TestRoutedStreamRouterStopAnswers503(t *testing.T) {
	arrived := make(chan struct{}, 1)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok","in_flight_units":0,"max_units":1,"queue_depth":0,"uptime_s":1}`)
			return
		}
		select {
		case arrived <- struct{}{}:
		default:
		}
		// Hold the subscription until the router gives up on it, then shed.
		select {
		case <-req.Context().Done():
		case <-time.After(10 * time.Second):
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable)
	}))
	defer stub.Close()
	router := newRouter(t, Config{Backends: []string{stub.URL}, HealthInterval: time.Hour})
	front := httptest.NewServer(router)
	defer front.Close()

	type answer struct {
		resp *http.Response
		err  error
	}
	got := make(chan answer, 1)
	go func() {
		resp, err := http.Get(front.URL + "/stream?ids=0")
		got <- answer{resp, err}
	}()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the subscription never reached the replica")
	}
	router.Close()
	a := <-got
	if a.err != nil {
		t.Fatalf("GET /stream: %v", a.err)
	}
	resp := a.resp
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("status %d Retry-After %q body %s, want 503 with Retry-After 1",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if want := `{"error":"router is stopping"}` + "\n"; string(body) != want {
		t.Errorf("body %q, want %q", body, want)
	}
}
