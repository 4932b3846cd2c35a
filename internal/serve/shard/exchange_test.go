package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

// answerTransport answers every request the router sends with one
// scripted replica answer.
type answerTransport func(*http.Request) (*http.Response, error)

func (f answerTransport) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// replicaAnswer builds a transport answering status with body or, for
// status 0, failing at the transport. A request whose context is already
// done fails with the context's error, as net/http's transport does.
func replicaAnswer(status int, body string) answerTransport {
	return func(req *http.Request) (*http.Response, error) {
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
		if status == 0 {
			return nil, errors.New("connection refused")
		}
		h := http.Header{"Content-Type": {"application/json"}}
		if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
			h.Set("Retry-After", "1")
		}
		return &http.Response{StatusCode: status, Header: h, Body: io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)), Request: req}, nil
	}
}

// exchangeOutcome is what one send decides about a replica answer.
type exchangeOutcome struct {
	successes, failures uint64 // the breaker's record of the attempt
	excluded            bool   // the replica is out for the rest of the request
	forward             bool   // pass the answer through; false: fail over
}

// TestExchangeClassifiesAlike: a /price attempt and a /stream subscribe go
// through the one exchange, so every replica answer gets the same breaker
// outcome, the same exclusion and the same choice between passing the
// answer through and failing over on both. A corrupt 200 applies to
// pricing only: a subscription's 200 body is an open event stream.
func TestExchangeClassifiesAlike(t *testing.T) {
	const okBody = `{"results":[{"price":1}],"method":"closed-form","config":{},"engine":"scalar","elapsed_us":1}`
	cases := []struct {
		name      string
		transport answerTransport
		cancelled bool
		want      exchangeOutcome
		priceOnly bool
	}{
		{name: "200", transport: replicaAnswer(200, okBody), want: exchangeOutcome{successes: 1, forward: true}},
		{name: "400", transport: replicaAnswer(400, `{"error":"bad"}`), want: exchangeOutcome{successes: 1, forward: true}},
		{name: "429", transport: replicaAnswer(429, `{"error":"slow down"}`), want: exchangeOutcome{successes: 1, excluded: true}},
		{name: "503", transport: replicaAnswer(503, `{"error":"shed"}`), want: exchangeOutcome{successes: 1, excluded: true}},
		{name: "500", transport: replicaAnswer(500, `{"error":"boom"}`), want: exchangeOutcome{failures: 1, excluded: true}},
		{name: "transport-error", transport: replicaAnswer(0, ""), want: exchangeOutcome{failures: 1, excluded: true}},
		{name: "cancelled", transport: replicaAnswer(200, okBody), cancelled: true, want: exchangeOutcome{successes: 1}},
		{name: "corrupt-200", transport: replicaAnswer(200, `{"results":[{"pri`), want: exchangeOutcome{failures: 1, excluded: true}, priceOnly: true},
	}
	exchanges := []struct {
		name string
		ex   exchange
	}{
		{"price", exchange{method: http.MethodPost, uri: "/price", ctype: "application/json", body: priceBody("", 1)}},
		{"stream", exchange{method: http.MethodGet, uri: "/stream?ids=0", subscribe: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, x := range exchanges {
				if tc.priceOnly && x.ex.subscribe {
					continue
				}
				r, err := New(Config{Backends: []string{"http://replica.invalid"}, Transport: tc.transport})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				if tc.cancelled {
					cancel()
				}
				rr := &routeResult{excluded: make(map[*replica]bool)}
				err = r.send(ctx, rr, &x.ex)
				cancel()
				if rr.final != nil && rr.final.stream != nil {
					rr.final.stream.Close()
				}
				rep := r.replicas[0]
				bs := rep.breaker.Snapshot()
				got := exchangeOutcome{successes: bs.Successes, failures: bs.Failures,
					excluded: rr.excluded[rep], forward: err == nil}
				r.Close()
				if got != tc.want {
					t.Errorf("%s: %+v (err %v), want %+v", x.name, got, err, tc.want)
				}
				if tc.cancelled && !errors.Is(err, context.Canceled) {
					t.Errorf("%s: err %v, want context.Canceled", x.name, err)
				}
				if rep.inflight.Load() != 0 {
					t.Errorf("%s: inflight %d after the exchange, want 0", x.name, rep.inflight.Load())
				}
			}
		})
	}
}

// TestResubscribeJitterDecorrelated: streams whose upstreams ended at the
// same moment (a draining replica says goodbye to every subscriber at
// once) do not re-subscribe in lockstep. Across 2,048 streams no two wait
// the same first two re-subscribe delays, and no delay is below the
// floor that keeps an accept-and-end replica from spinning the relay.
// The first wave itself is spread: the 2,048 first attempts span at
// least 25ms, not the backoff's millisecond.
// Delay is a pure function of the seed and the attempt: no clock runs.
func TestResubscribeJitterDecorrelated(t *testing.T) {
	seen := make(map[[2]time.Duration]string)
	first, last := time.Duration(math.MaxInt64), time.Duration(0)
	for n := uint64(1); n <= 2048; n++ {
		name := fmt.Sprintf("stream %d", n)
		var delays [2]time.Duration
		for attempt := range delays {
			delays[attempt] = resubscribeDelay(jitterSeed(^n, 0), attempt)
			if delays[attempt] < streamRetryFloor {
				t.Fatalf("%s attempt %d waits %v, below the %v floor", name, attempt, delays[attempt], streamRetryFloor)
			}
		}
		if prev, ok := seen[delays]; ok {
			t.Fatalf("%s waits the same re-subscribe delays as %s: %v", name, prev, delays)
		}
		seen[delays] = name
		first, last = min(first, delays[0]), max(last, delays[0])
	}
	if last-first < 25*time.Millisecond {
		t.Fatalf("first re-subscriptions span %v..%v, want a spread of at least 25ms", first, last)
	}
}
