package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
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
// Before the first frame the router proxies like the request path: a 4xx
// is passed through, and a 503/429, 5xx or transport error fails over
// under attemptOnce's retry policy and breaker rule (settleStatus). The
// client gets 200 only once a replica has.
//
// After it, the client's stream outlives any one replica:
//   - A replica's goodbye (drain) or stream end (kill) is never forwarded:
//     the router re-subscribes elsewhere, forwards only the first hello,
//     and the new replica's first snapshot is the client's resync.
//   - Only the router's own stop says goodbye ("draining").
//   - A frame write that misses streamWriteTimeout (2s) disconnects a
//     stalled client, the lone server's rule (stream_slow_drops).

// streamRetryDelay spaces re-subscriptions after an upstream stream ends,
// so a replica that accepts and at once ends a stream cannot spin the
// relay.
const streamRetryDelay = 100 * time.Millisecond

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

	uri := req.URL.RequestURI()
	out := &routeResult{st: &reqState{excluded: make(map[*replica]bool)}}
	err := r.retry(ctx, jitterSeed(^seq, 0), maxAttempts, out, func(ctx context.Context) (*backendResult, error) {
		return r.subscribe(ctx, uri, out.st)
	})
	if err != nil {
		r.writeRouteError(w, err, out)
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
			if up = r.resubscribe(ctx, uri, up.rep); up != nil {
				continue
			}
		}
		// The client left, or the router is stopping.
		if r.stopped.Err() != nil {
			r.writeFrame(w, rc, stream.MarshalFrame(stream.EventGoodbye,
				&stream.Goodbye{Reason: "draining"}))
		}
		return
	}
}

// subscribe sends the subscription to the replica pick admits and
// classifies the answer as attemptOnce does: a 200 returns with its event
// stream open (the caller closes it); a 4xx returns read, to be passed
// through; 503/429, 5xx and transport errors are failures to fail over.
// The replica's in-flight count covers only this exchange: an open
// stream is not a request outstanding, and counting it would steer every
// routed /price away from the replica for the stream's whole life.
func (r *Router) subscribe(ctx context.Context, uri string, st *reqState) (*backendResult, error) {
	rep := r.pick(st)
	if rep == nil {
		r.noReplica.Add(1)
		return nil, errNoReplica
	}
	st.attempts++
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+uri, nil)
	if err != nil {
		rep.breaker.Success() // request construction is not the replica's fault
		return nil, resilience.Permanent(err)
	}
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	resp, err := r.client.Do(hreq)
	if err != nil {
		return nil, r.replicaFailed(ctx, st, rep, fmt.Errorf("replica %s: %w", rep.url, err))
	}
	if resp.StatusCode == http.StatusOK {
		rep.breaker.Success()
		rep.served.Add(1)
		return &backendResult{status: resp.StatusCode, stream: resp.Body, rep: rep}, nil
	}
	body, err := readBody(resp.Body, resp.ContentLength)
	_ = resp.Body.Close() // the read error above is the signal that matters
	if err != nil {
		return nil, r.replicaFailed(ctx, st, rep, fmt.Errorf("replica %s: reading response: %w", rep.url, err))
	}
	res := &backendResult{
		status:     resp.StatusCode,
		body:       body,
		contentTyp: resp.Header.Get("Content-Type"),
		retryAfter: resp.Header.Get("Retry-After"),
		rep:        rep,
	}
	if settleStatus(st, rep, resp.StatusCode) {
		return nil, &httpFailure{res: res}
	}
	return res, nil
}

// resubscribe opens the stream again after its upstream ended, preferring
// a replica other than prev or one that failed this resubscription, and
// keeps trying every streamRetryDelay until one answers 200. It returns
// nil once ctx ends (the client left or the router is stopping).
func (r *Router) resubscribe(ctx context.Context, uri string, prev *replica) *backendResult {
	st := &reqState{excluded: map[*replica]bool{prev: true}}
	for sleepCtx(ctx, streamRetryDelay) {
		if res, _ := r.subscribe(ctx, uri, st); res != nil && res.stream != nil {
			return res
		}
	}
	return nil
}

// relay copies one upstream's frames to the client until that upstream
// ends or says goodbye (true: fail over) or a client write fails (false).
// Only the first hello of the client's stream is forwarded.
func (r *Router) relay(w io.Writer, rc *http.ResponseController, upstream io.Reader, helloSent *bool) bool {
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
		if !r.writeFrame(w, rc, buf) {
			return false
		}
	}
}

// writeFrame writes and flushes one frame under streamWriteTimeout. A
// deadline miss is a stalled client: it is counted and, like every failed
// write, ends the client's stream.
func (r *Router) writeFrame(w io.Writer, rc *http.ResponseController, frame []byte) bool {
	if err := rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout)); err != nil {
		return false
	}
	_, err := w.Write(frame)
	if err == nil {
		err = rc.Flush()
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		r.streamSlowDrops.Add(1)
	}
	return err == nil
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
