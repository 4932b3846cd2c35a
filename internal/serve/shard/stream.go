package shard

import (
	"context"
	"io"
	"net/http"
	"time"

	"finbench/internal/resilience"
	"finbench/internal/serve/stream"
)

// Streaming relay: GET /stream on the router forwards the client's query
// unchanged to one replica and relays its SSE frames verbatim, so a routed
// subscription answers what a lone replica answers. Every hub reprices its
// whole universe on every tick, whatever is subscribed, so splitting a
// subscription across replicas would spread none of that cost.
//
// Before the first frame the router proxies like the request path, through
// the same exchange (send): a 4xx is passed through, and a 503/429, 5xx or
// transport error fails over under the same retry policy and breaker rule
// (settleStatus). The client gets 200 only once a replica has; a
// subscription the router's stop cuts off first gets 503 + Retry-After.
//
// After it, the client's stream outlives any one replica:
//   - A replica's goodbye (drain) or stream end (kill) is never forwarded:
//     the router re-subscribes elsewhere, forwards only the first hello,
//     and the new replica's first snapshot is the client's resync.
//   - Re-subscription attempts are spaced by resubscribeDelay, jittered
//     per stream, so streams that lost their replica together do not
//     come back together.
//   - Only the router's own stop says goodbye ("draining").
//   - A frame write that misses stream.WriteTimeout (2s) disconnects a
//     stalled client, the lone server's rule (stream_slow_drops).

// streamRetryFloor is the least a re-subscription waits, so a replica
// that accepts a stream and at once ends it cannot spin the relay.
const streamRetryFloor = 50 * time.Millisecond

// resubscribeDelay is the wait before re-subscription attempt number
// attempt (from 0) of the stream whose jitterSeed is seed:
// streamRetryFloor plus the stream's retry backoff, so from about 52ms
// up to at most 150ms, with a jitter that differs from stream to stream.
func resubscribeDelay(seed uint64, attempt int) time.Duration {
	return streamRetryFloor + resilience.Backoff{Seed: seed}.Delay(attempt)
}

// routeStream serves one routed SSE subscription.
func (r *Router) routeStream(w http.ResponseWriter, req *http.Request) {
	seq := r.streamRequests.Add(1)
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	// The router's stop cancels ctx, which unblocks an upstream read so
	// the relay below can say goodbye.
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	defer context.AfterFunc(r.stopped, cancel)()

	seed := jitterSeed(^seq, 0)
	ex := &exchange{method: http.MethodGet, uri: req.URL.RequestURI(), subscribe: true}
	out, err := r.dispatch(ctx, seed, ex)
	if err != nil {
		r.writeRouteError(w, err)
		return
	}
	up := out.final
	if up.stream == nil {
		r.passThrough(w, out) // the replica rejected the subscription
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	helloSent := false
	for {
		alive := r.relay(w, rc, up.stream, &helloSent)
		_ = up.stream.Close()
		if !alive {
			return
		}
		if ctx.Err() == nil {
			// The upstream ended on its own: fail over.
			r.streamResubscribes.Add(1)
			if up = r.resubscribe(ctx, seed, ex, up.rep); up != nil {
				continue
			}
		}
		// The client left, or the router is stopping.
		if r.stopped.Err() != nil {
			stream.WriteFrame(w, rc, stream.MarshalFrame(stream.EventGoodbye,
				&stream.Goodbye{Reason: "draining"}), &r.streamSlowDrops)
		}
		return
	}
}

// resubscribe opens the stream again after its upstream ended, preferring
// a replica other than prev or one that failed this resubscription, and
// keeps trying, resubscribeDelay apart, until one answers 200. These
// attempts are not retries: they run outside the retry budget, so a
// drain that ends many streams at once cannot spend the budget /price
// retries need, and a stream outlives any number of replica losses. It
// returns nil once ctx ends (the client left or the router is stopping).
func (r *Router) resubscribe(ctx context.Context, seed uint64, ex *exchange, prev *replica) *backendResult {
	rr := &routeResult{excluded: map[*replica]bool{prev: true}}
	for attempt := 0; sleepCtx(ctx, resubscribeDelay(seed, attempt)); attempt++ {
		if r.send(ctx, rr, ex) == nil && rr.final.stream != nil {
			return rr.final
		}
	}
	return nil
}

// relay copies one upstream's frames to the client until that upstream
// ends or says goodbye (true: fail over) or a client write fails (false).
// Only the first hello of the client's stream is forwarded.
func (r *Router) relay(w http.ResponseWriter, rc *http.ResponseController, upstream io.Reader, helloSent *bool) bool {
	fr := stream.NewFrameReader(upstream)
	var buf []byte
	for {
		f, err := fr.Next()
		if err != nil || f.Event == stream.EventGoodbye {
			return true
		}
		if f.Event == stream.EventHello {
			if *helloSent {
				continue
			}
			*helloSent = true
		}
		buf = stream.AppendFrame(buf[:0], f.Event, f.Data)
		if !stream.WriteFrame(w, rc, buf, &r.streamSlowDrops) {
			return false
		}
	}
}

// sleepCtx sleeps d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
