package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"finbench/internal/serve"
)

// maxHealthBody bounds a /healthz response; the real body is ~120
// bytes, so anything near the cap is already suspect.
const maxHealthBody = 16 << 10

// DecodeHealth parses and validates a backend /healthz body. It is the
// fuzz entry point: any input must either return an error or a response
// whose status is a known value and whose load signals are sane (no
// negatives, no non-finite uptime) — a router scoring replicas by these
// numbers must never ingest garbage from a limping backend.
func DecodeHealth(data []byte) (*serve.HealthResponse, error) {
	if len(data) > maxHealthBody {
		return nil, fmt.Errorf("healthz body %d bytes; max %d", len(data), maxHealthBody)
	}
	var h serve.HealthResponse
	if err := strictUnmarshal(data, &h); err != nil {
		return nil, err
	}
	switch h.Status {
	case "ok", "draining":
	default:
		return nil, fmt.Errorf("unknown healthz status %q", h.Status)
	}
	if h.InFlightUnits < 0 || h.MaxUnits < 0 || h.QueueDepth < 0 {
		return nil, fmt.Errorf("negative load signal in healthz")
	}
	if math.IsNaN(h.UptimeS) || math.IsInf(h.UptimeS, 0) || h.UptimeS < 0 {
		return nil, fmt.Errorf("bad uptime %v", h.UptimeS)
	}
	return &h, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing
// garbage — the router and replicas ship together, so a field the
// router does not know is a corruption signal, not a version skew.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after healthz body")
	}
	return nil
}

// healthLoop re-checks every replica each HealthInterval until Close.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stopped.Done():
			return
		case <-tick.C:
			r.checkAll()
		}
	}
}

// checkAll probes every replica concurrently (a hung replica must not
// delay the others' checks) and waits for the sweep to finish.
func (r *Router) checkAll() {
	done := make(chan struct{}, len(r.replicas))
	for _, rep := range r.replicas {
		go func(rep *replica) {
			r.checkOne(rep)
			done <- struct{}{}
		}(rep)
	}
	for range r.replicas {
		<-done
	}
	r.healthSweeps.Add(1)
}

// checkOne probes one replica's /healthz and updates its routing state.
// Health probes are deliberately outside the circuit breaker: the
// breaker measures the request path, the health loop the control path,
// and either alone can exclude a replica.
func (r *Router) checkOne(rep *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/healthz", nil)
	if err != nil {
		rep.healthy.Store(false)
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		rep.healthy.Store(false)
		return
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxHealthBody+1))
	_ = resp.Body.Close() // the read error above is the signal that matters
	if err != nil {
		rep.healthy.Store(false)
		return
	}
	h, err := DecodeHealth(body)
	if err != nil {
		rep.healthy.Store(false)
		return
	}
	switch {
	case resp.StatusCode == http.StatusOK && h.Status == "ok":
		// A queued request means the replica is saturated; weigh queue
		// depth far above raw in-flight units so the scorer steers away
		// before piling on.
		rep.loadUnits.Store(h.InFlightUnits + h.QueueDepth*1_000_000)
		rep.draining.Store(false)
		rep.healthy.Store(true)
	case resp.StatusCode == http.StatusServiceUnavailable && h.Status == "draining":
		// Alive but shutting down: stop routing to it without counting
		// a crash; requests in flight there may still complete.
		rep.draining.Store(true)
		rep.healthy.Store(true)
	default:
		rep.healthy.Store(false)
	}
}
