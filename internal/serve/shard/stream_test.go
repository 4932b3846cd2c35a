package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"finbench"
	"finbench/internal/serve"
	"finbench/internal/serve/stream"
)

func TestFormatRanges(t *testing.T) {
	cases := []struct {
		ids  []int
		want string
	}{
		{nil, ""},
		{[]int{5}, "5"},
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{0, 1, 2, 80, 128, 129}, "0-2,80,128-129"},
		{[]int{3, 5, 7}, "3,5,7"},
	}
	for _, tc := range cases {
		if got := formatRanges(tc.ids); got != tc.want {
			t.Errorf("formatRanges(%v) = %q, want %q", tc.ids, got, tc.want)
		}
	}
}

// smallStreamCfg is a small hub configuration. Replicas built from one
// configuration share its seed, so their universes agree — the routed
// feed's contract ids mean the same thing on every replica.
func smallStreamCfg(universe int) stream.Config {
	return stream.Config{Universe: universe, Underlyings: 8, Interval: 2 * time.Millisecond}
}

func TestRoutedStreamRequiresExplicitSubscription(t *testing.T) {
	hcfg := smallStreamCfg(64)
	tp := newTopology(t, topoConfig{replicas: 1, serve: serve.Config{Stream: &hcfg}, router: Config{HealthInterval: 20 * time.Millisecond}})
	resp, err := http.Get(tp.front.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("routed /stream without a subscription = %d, want 400", resp.StatusCode)
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
// contract: the partitioned subscription opens with exactly one hello
// (rewritten to the full subscription), both partitions' data arrives,
// a lost replica's goodbye is never forwarded, the orphaned partition
// re-subscribes to the survivor and resyncs with a fresh snapshot, and
// every forwarded value stays bit-identical to a cold repricing at its
// echoed inputs — through a drain, and through a kill.
func TestRoutedStreamMergeAndFailover(t *testing.T) {
	for _, loss := range []string{"drain", "kill"} {
		t.Run(loss, func(t *testing.T) { testRoutedStreamFailover(t, loss) })
	}
}

func testRoutedStreamFailover(t *testing.T, loss string) {
	hcfg := smallStreamCfg(64)
	tp := newTopology(t, topoConfig{replicas: 2, serve: serve.Config{Stream: &hcfg},
		router: Config{HealthInterval: 20 * time.Millisecond}})

	resp, err := http.Get(tp.front.URL + "/stream?contracts=0-63")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("routed /stream = %d", resp.StatusCode)
	}
	fr := stream.NewFrameReader(resp.Body)
	f, err := fr.Next()
	if err != nil || f.Event != stream.EventHello {
		t.Fatalf("first frame = %+v, %v — want hello", f, err)
	}
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

	// Lose one replica mid-stream: a drain makes its hub push goodbye to
	// its partition's relay; a kill resets the relay's connection.
	if loss == "drain" {
		tp.servers[0].StartDrain()
	} else {
		tp.kill(0)
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
	snap := tp.router.Snapshot()
	if snap.StreamRequests == 0 || snap.StreamPartitions < 2 {
		t.Errorf("stream counters = requests %d partitions %d, want >=1 and >=2",
			snap.StreamRequests, snap.StreamPartitions)
	}
}

// TestRoutedStreamSlowClientShed: a routed subscriber that reads, but
// far slower than the feed produces, overflows the router's bounded
// merged queue and is shed with a goodbye — relays never block, so the
// replicas never feel it. The client paces its reads (~1MB/s) rather
// than stalling outright — a full stall exercises the write-deadline
// path instead, which the serve-layer test covers. Frames are kept
// small (256 contracts, ~70KB) at a high event rate, so the merged
// queue fills in well under a second while every individual frame
// write stays far inside the deadline: the overflow path wins the race
// against the deadline path deterministically.
func TestRoutedStreamSlowClientShed(t *testing.T) {
	hcfg := smallStreamCfg(256)
	hcfg.SpotThreshold = -1 // every tick rewrites the universe
	hcfg.Budget = time.Second
	tp := newTopology(t, topoConfig{replicas: 1, serve: serve.Config{Stream: &hcfg}, router: Config{
		HealthInterval:     20 * time.Millisecond,
		StreamWriteTimeout: 5 * time.Second,
	}})

	resp, err := http.Get(tp.front.URL + "/stream?contracts=0-255")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 8<<10)
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				return // shed (or test teardown)
			}
			time.Sleep(8 * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(20 * time.Second)
	for tp.router.Snapshot().StreamSlowDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lagging routed subscriber was never shed")
		}
		time.Sleep(25 * time.Millisecond)
	}
	resp.Body.Close() // unstick the pacer
	<-done
}
