package stream

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// SSE event names. A stream opens with hello, then carries snapshot and
// greeks events; goodbye announces a server-initiated close (drain).
const (
	EventHello    = "hello"
	EventSnapshot = "snapshot"
	EventGreeks   = "greeks"
	EventGoodbye  = "goodbye"
)

// Entry is one contract's state in a snapshot or greeks event. It echoes
// the exact inputs the values were computed from (spot/vol/rate at the
// contract's last repricing) so every entry is self-verifying: a cold
// one-option LevelAdvanced repricing plus scalar greeks at the echoed
// inputs must reproduce every float bit-for-bit (the composition
// independence the serving tier pins).
type Entry struct {
	ID     int     `json:"id"`
	Type   string  `json:"type"` // "call" or "put"
	Strike float64 `json:"strike"`
	Expiry float64 `json:"expiry"`
	Spot   float64 `json:"spot"`
	Vol    float64 `json:"vol"`
	Rate   float64 `json:"rate"`
	Price  float64 `json:"price"`
	Delta  float64 `json:"delta"`
	Gamma  float64 `json:"gamma"`
	Vega   float64 `json:"vega"`
	Theta  float64 `json:"theta"`
	Rho    float64 `json:"rho"`
}

// Event is the payload of snapshot and greeks events. Seq and TickNS
// identify the tick of the latest repricing pass (TickNS is the tick's
// wall clock — subscribers measure tick→push staleness from it).
// Degraded marks a pass that covered only part of its dirty set (budget
// blown or worst-movers cap applied); Resync marks a snapshot forced by
// subscriber-buffer overflow or failover, as opposed to the subscription's
// initial snapshot.
type Event struct {
	Seq       uint64  `json:"seq"`
	TickNS    int64   `json:"tick_ns"`
	Degraded  bool    `json:"degraded,omitempty"`
	Resync    bool    `json:"resync,omitempty"`
	Contracts []Entry `json:"contracts"`
}

// Hello is the stream's opening event: everything a client needs to
// regenerate the universe and interpret the feed.
type Hello struct {
	Universe    int     `json:"universe"`
	Underlyings int     `json:"underlyings"`
	Seed        uint64  `json:"seed"`
	IntervalMS  int64   `json:"interval_ms"`
	SpotThresh  float64 `json:"spot_threshold"`
	Subscribed  int     `json:"subscribed"`
}

// Goodbye is the final event of a server-initiated close.
type Goodbye struct {
	Reason string `json:"reason"`
}

// AppendFrame appends one SSE frame ("event: <name>\ndata: <json>\n\n")
// to dst. Payloads are single-line JSON, so one data line suffices.
func AppendFrame(dst []byte, event string, data []byte) []byte {
	dst = append(dst, "event: "...)
	dst = append(dst, event...)
	dst = append(dst, "\ndata: "...)
	dst = append(dst, data...)
	dst = append(dst, '\n', '\n')
	return dst
}

// MarshalFrame builds a complete SSE frame for v, or nil if v does not
// marshal (never the case for the event types above).
func MarshalFrame(event string, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return AppendFrame(nil, event, data)
}

// WriteTimeout bounds one SSE frame write on either serving tier: a
// subscriber that cannot absorb a frame within it is disconnected rather
// than allowed to pin its handler (and block a drain) indefinitely.
const WriteTimeout = 2 * time.Second

// WriteFrame writes frame to a subscriber under WriteTimeout through its
// response controller and flushes it, reporting whether the subscriber
// took it; a nil frame (one MarshalFrame could not build) writes nothing
// and reports true. A deadline miss is a stalled subscriber and is
// counted in slow. On false the caller ends the stream.
func WriteFrame(w http.ResponseWriter, rc *http.ResponseController, frame []byte, slow *atomic.Uint64) bool {
	if frame == nil {
		return true
	}
	if err := rc.SetWriteDeadline(time.Now().Add(WriteTimeout)); err != nil {
		return false
	}
	_, err := w.Write(frame)
	if err == nil {
		err = rc.Flush()
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		slow.Add(1)
	}
	return err == nil
}
