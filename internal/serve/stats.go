package serve

import (
	"math/bits"
	"sync/atomic"
	"time"

	"finbench/internal/parallel"
	"finbench/internal/serve/stream"
)

// Observability. /statsz reports everything an operator needs to see the
// serving pipeline working: request/status counts, shed counters,
// per-method latency quantiles from lock-free exponential histograms,
// and the parallel pool's scheduler counters (cumulative — clients diff
// consecutive reads for deltas).

// histBuckets spans 1us..2^40us (~12 days) in powers of two.
const histBuckets = 41

// hist is a lock-free exponential latency histogram (microsecond base).
type hist struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumUS   atomic.Uint64
}

func (h *hist) observe(d time.Duration) {
	us := uint64(d.Microseconds())
	b := bits.Len64(us) // 0us -> bucket 0, 1us -> 1, 2-3us -> 2, ...
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// quantile returns an upper bound (bucket ceiling, in microseconds) for
// the q-quantile of observed latencies; 0 when empty.
func (h *hist) quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for b := 0; b < histBuckets; b++ {
		seen += h.buckets[b].Load()
		if seen > target {
			if b == 0 {
				return 0
			}
			return 1<<uint(b) - 1 // ceiling of the bucket's range
		}
	}
	return 1<<uint(histBuckets-1) - 1
}

// histJSON is the wire form of one histogram.
type histJSON struct {
	Count  uint64 `json:"count"`
	MeanUS uint64 `json:"mean_us"`
	P50US  uint64 `json:"p50_us"`
	P90US  uint64 `json:"p90_us"`
	P99US  uint64 `json:"p99_us"`
}

func (h *hist) snapshot() histJSON {
	var out histJSON
	out.Count = h.count.Load()
	if out.Count > 0 {
		out.MeanUS = h.sumUS.Load() / out.Count
	}
	out.P50US = h.quantile(0.50)
	out.P90US = h.quantile(0.90)
	out.P99US = h.quantile(0.99)
	return out
}

// latencyMethods are the histogram keys (pricing methods plus greeks).
var latencyMethods = []string{
	"closed-form", "binomial-tree", "crank-nicolson",
	"monte-carlo", "trinomial-tree", "greeks", "scenario",
}

// stats aggregates server-wide counters.
type stats struct {
	start time.Time

	priceRequests  atomic.Uint64
	greeksRequests atomic.Uint64
	// scenarioRequests counts /scenario requests; scenarioCells counts
	// scenario cells evaluated by successful responses (sub-range
	// requests count only their own cells).
	scenarioRequests atomic.Uint64
	scenarioCells    atomic.Uint64
	// columnarRequests counts /price requests in the binary columnar
	// framing.
	columnarRequests atomic.Uint64
	// streamRequests counts GET /stream subscription attempts;
	// streamSlowDisconnects counts subscribers disconnected for missing
	// the frame-write deadline (stalled clients).
	streamRequests        atomic.Uint64
	streamSlowDisconnects atomic.Uint64

	code200 atomic.Uint64
	code400 atomic.Uint64
	code404 atomic.Uint64
	code405 atomic.Uint64
	code408 atomic.Uint64
	code503 atomic.Uint64

	shedAdmission atomic.Uint64
	shedDrain     atomic.Uint64

	hists map[string]*hist
}

func newStats() *stats {
	s := &stats{start: time.Now(), hists: make(map[string]*hist, len(latencyMethods))}
	for _, m := range latencyMethods {
		s.hists[m] = &hist{}
	}
	return s
}

func (s *stats) observeLatency(method string, d time.Duration) {
	if h, ok := s.hists[method]; ok {
		h.observe(d)
	}
}

func (s *stats) countCode(code int) {
	switch code {
	case 200:
		s.code200.Add(1)
	case 400:
		s.code400.Add(1)
	case 404:
		s.code404.Add(1)
	case 405:
		s.code405.Add(1)
	case 408:
		s.code408.Add(1)
	case 503:
		s.code503.Add(1)
	}
}

// StatszResponse is the GET /statsz body.
type StatszResponse struct {
	UptimeS float64 `json:"uptime_s"`

	Requests map[string]uint64 `json:"requests"`
	Codes    map[string]uint64 `json:"codes"`
	Shed     map[string]uint64 `json:"shed"`

	InFlightUnits int64 `json:"in_flight_units"`
	MaxUnits      int64 `json:"max_units"`
	Draining      bool  `json:"draining"`

	// Coalesce is never set: the server holds no coalescer. The field
	// stays only until the frozen benchmark/ package, which reads it, can
	// be corrected (ROADMAP item 1a-i).
	Coalesce map[string]uint64 `json:"coalesce,omitempty"`

	// Scenario is the scenario engine's work counters: requests seen and
	// cells evaluated by successful responses.
	Scenario map[string]uint64 `json:"scenario"`

	LatencyUS map[string]histJSON `json:"latency_us"`

	// Sched is the parallel pool's cumulative scheduler counters
	// (pool.jobs, pool.dispatched, ...); diff consecutive reads for
	// per-interval deltas — the topology tests use this to prove cancelled
	// work stops reaching the pool.
	Sched map[string]uint64 `json:"sched"`

	// Stream is the streaming Greeks hub's counters (a fixed struct, not a
	// map, so snapshot encoding stays deterministic); nil when streaming
	// is disabled.
	Stream *stream.Stats `json:"stream,omitempty"`
}

func (s *Server) statszSnapshot() StatszResponse {
	st := s.stats
	out := StatszResponse{
		UptimeS: time.Since(st.start).Seconds(),
		Requests: map[string]uint64{
			"price":          st.priceRequests.Load(),
			"greeks":         st.greeksRequests.Load(),
			"price_columnar": st.columnarRequests.Load(),
			"scenario":       st.scenarioRequests.Load(),
			"stream":         st.streamRequests.Load(),
		},
		Codes: map[string]uint64{
			"200": st.code200.Load(),
			"400": st.code400.Load(),
			"404": st.code404.Load(),
			"405": st.code405.Load(),
			"408": st.code408.Load(),
			"503": st.code503.Load(),
		},
		Shed: map[string]uint64{
			"admission": st.shedAdmission.Load(),
			"drain":     st.shedDrain.Load(),
		},
		InFlightUnits: s.adm.inFlight(),
		MaxUnits:      s.adm.max,
		Draining:      s.draining.Load(),
		Scenario: map[string]uint64{
			"requests": st.scenarioRequests.Load(),
			"cells":    st.scenarioCells.Load(),
		},
		LatencyUS: make(map[string]histJSON, len(latencyMethods)),
		Sched:     parallel.Sched().Map(),
	}
	for _, m := range latencyMethods {
		out.LatencyUS[m] = st.hists[m].snapshot()
	}
	if s.hub != nil {
		hs := s.hub.Snapshot()
		hs.SlowDisconnects = st.streamSlowDisconnects.Load()
		out.Stream = &hs
	}
	return out
}
