package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"finbench/internal/serve/stream"
)

func streamConfig(universe int, interval time.Duration) Config {
	return Config{Stream: &stream.Config{
		Universe:    universe,
		Underlyings: 8,
		Interval:    interval,
	}}
}

func TestStreamDisabled404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /stream without a hub = %d, want 404", resp.StatusCode)
	}
}

func TestStreamBadSubscription400(t *testing.T) {
	_, ts := newTestServer(t, streamConfig(64, time.Millisecond))
	for _, q := range []string{"?contracts=0-999", "?ids=junk"} {
		resp, err := http.Get(ts.URL + "/stream" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /stream%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestStreamHelloThenSnapshotThenGreeks(t *testing.T) {
	s, ts := newTestServer(t, streamConfig(64, time.Millisecond))
	resp, err := http.Get(ts.URL + "/stream?contracts=0-15")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /stream = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
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
	if hello.Universe != 64 || hello.Subscribed != 16 {
		t.Errorf("hello = %+v, want universe 64 subscribed 16", hello)
	}
	f, err = fr.Next()
	if err != nil || f.Event != stream.EventSnapshot {
		t.Fatalf("second frame = %+v, %v — want the initial snapshot", f, err)
	}
	var ev stream.Event
	if err := json.Unmarshal(f.Data, &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Contracts) != 16 {
		t.Errorf("initial snapshot carries %d contracts, want 16", len(ev.Contracts))
	}
	// A greeks delta arrives once the walk moves something past a
	// threshold; bounded wait, not a fixed count, to stay robust.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if f, err = fr.Next(); err != nil {
			t.Fatalf("waiting for greeks: %v", err)
		}
		if f.Event == stream.EventGreeks {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no greeks event within 5s")
		}
	}
	snap := s.statszSnapshot()
	if snap.Stream == nil || snap.Stream.Subscribers != 1 {
		t.Errorf("statsz stream block = %+v, want 1 subscriber", snap.Stream)
	}
}

// TestDrainFinishesOpenStream is the SIGTERM regression: draining with
// an open SSE stream must push a goodbye frame, end the stream, and let
// Drain complete inside its window — an idle subscriber must not hold
// shutdown hostage.
func TestDrainFinishesOpenStream(t *testing.T) {
	s, ts := newTestServer(t, streamConfig(64, time.Millisecond))
	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fr := stream.NewFrameReader(resp.Body)
	if f, err := fr.Next(); err != nil || f.Event != stream.EventHello {
		t.Fatalf("first frame = %+v, %v", f, err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	sawGoodbye := false
	for {
		f, err := fr.Next()
		if err != nil {
			break // stream closed after (or instead of) goodbye
		}
		if f.Event == stream.EventGoodbye {
			var bye stream.Goodbye
			if err := json.Unmarshal(f.Data, &bye); err != nil {
				t.Fatal(err)
			}
			if bye.Reason != "draining" {
				t.Errorf("goodbye reason = %q, want draining", bye.Reason)
			}
			sawGoodbye = true
		}
	}
	if !sawGoodbye {
		t.Error("stream ended without a goodbye frame")
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain with an open stream: %v", err)
		}
	case <-time.After(6 * time.Second):
		t.Fatal("Drain never completed with an open stream")
	}
}

// TestStreamSlowClientDisconnected: a subscriber stalled past the write
// deadline is disconnected — and a healthy subscriber on the same hub
// keeps receiving the whole time. The stalled client shrinks its
// receive buffer and stops reading so the server's blocked write is
// forced quickly; the hub's all-dirty mode makes frames large enough
// to fill what buffering remains.
func TestStreamSlowClientDisconnected(t *testing.T) {
	cfg := Config{
		Stream: &stream.Config{
			Universe:      2048,
			Underlyings:   16,
			Interval:      2 * time.Millisecond,
			Budget:        time.Second,
			SpotThreshold: -1, // every tick rewrites the universe: ~0.5MB frames
		},
	}
	s, ts := newTestServer(t, cfg)

	// The healthy subscriber, read continuously.
	healthy, err := http.Get(ts.URL + "/stream?contracts=0-7")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Body.Close()
	healthyEvents := make(chan string, 1024)
	go func() {
		fr := stream.NewFrameReader(healthy.Body)
		for {
			f, err := fr.Next()
			if err != nil {
				close(healthyEvents)
				return
			}
			select {
			case healthyEvents <- f.Event:
			default:
			}
		}
	}()

	// The stalled subscriber: a raw conn with a tiny receive buffer that
	// sends the request and then never reads.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.SetReadBuffer(4 << 10); err != nil {
			t.Logf("SetReadBuffer: %v (continuing)", err)
		}
	}
	fmt.Fprintf(conn, "GET /stream HTTP/1.1\r\nHost: test\r\n\r\n")

	deadline := time.Now().Add(10 * time.Second)
	for {
		if s.stats.streamSlowDisconnects.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled subscriber never disconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The healthy subscriber must still be alive and receiving.
	select {
	case ev, ok := <-healthyEvents:
		if !ok {
			t.Fatal("healthy subscriber's stream died alongside the stalled one")
		}
		_ = ev
	case <-time.After(2 * time.Second):
		t.Fatal("healthy subscriber starved while the stalled one was shed")
	}
}
