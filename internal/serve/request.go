package serve

import "finbench/internal/serve/wire"

// The wire types of the pricing API live in internal/serve/wire (shared
// with the shard router); the serve names are aliases so existing callers
// keep reading naturally. Every
// numeric knob echoes back in the response as the *effective* value
// (after defaulting and clamping), so a client can reproduce each price
// bit-for-bit with the library.

type (
	// PriceRequest is the POST /price body.
	PriceRequest = wire.PriceRequest
	// PriceResponse is the POST /price 200 body.
	PriceResponse = wire.PriceResponse
	// ErrorResponse is the body of every non-200 status.
	ErrorResponse = wire.ErrorResponse
)

// HealthResponse is the GET /healthz body: liveness plus the load signals
// the shard router scores replicas by. Status is "ok" or "draining";
// draining replicas answer 503 with Retry-After so routers re-route
// instead of counting a crash.
type HealthResponse struct {
	Status        string  `json:"status"`
	InFlightUnits int64   `json:"in_flight_units"`
	MaxUnits      int64   `json:"max_units"`
	QueueDepth    int64   `json:"queue_depth"`
	UptimeS       float64 `json:"uptime_s"`
}
