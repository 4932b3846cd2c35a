package serve

import (
	"errors"
	"net/http"

	"finbench/internal/serve/stream"
)

// handleStream serves GET /stream: an SSE subscription to the streaming
// Greeks feed. The query's `contracts` (comma-separated inclusive ranges,
// "0-63,128-191") and `ids` (comma-separated ids) select the contract
// set; both absent subscribes to the whole universe.
//
// The stream opens with `event: hello` (the feed parameters), then the
// subscription's first pushed state is always a full `event: snapshot`;
// after that, `event: greeks` deltas carry the freshly repriced
// intersection of each pass. A subscriber whose buffer overflowed gets a
// `snapshot` with resync=true instead of the deltas it missed. Drain
// ends the stream with `event: goodbye`.
//
// Every frame write runs under stream.WriteTimeout (2s) through the
// response controller: a stalled client is disconnected rather than
// allowed to pin its handler (and block the server's drain) indefinitely.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.stats.streamRequests.Add(1)
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.hub == nil {
		s.writeError(w, http.StatusNotFound, "streaming disabled")
		return
	}
	if s.refuseDraining(w) {
		return
	}
	q := r.URL.Query()
	ids, err := stream.ParseSubscription(q.Get("contracts"), q.Get("ids"), s.hub.Universe())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sub, err := s.hub.Subscribe(ids)
	if err != nil {
		switch {
		case errors.Is(err, stream.ErrDraining):
			s.stats.shedDrain.Add(1)
			s.writeShed(w, err.Error())
		case errors.Is(err, stream.ErrTooManySubs):
			s.writeShed(w, err.Error())
		default:
			s.writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	defer s.hub.Unsubscribe(sub)

	rc := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	s.stats.countCode(http.StatusOK)

	s.streamActive.Add(1)
	defer s.streamActive.Add(-1)

	slow := &s.stats.streamSlowDisconnects
	hello := s.hub.HelloFor(sub)
	if !stream.WriteFrame(w, rc, stream.MarshalFrame(stream.EventHello, &hello), slow) {
		return
	}

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			// Client went away; Unsubscribe stops the fan-out.
			return
		case <-sub.Gone():
			// Drain: finish the stream explicitly inside the drain window
			// instead of letting the connection die with the listener.
			stream.WriteFrame(w, rc, stream.MarshalFrame(stream.EventGoodbye,
				&stream.Goodbye{Reason: "draining"}), slow)
			return
		case frame := <-sub.C():
			if !stream.WriteFrame(w, rc, frame, slow) {
				return
			}
		}
	}
}
