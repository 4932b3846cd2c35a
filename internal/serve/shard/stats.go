package shard

import (
	"net/http"
	"time"

	"finbench/internal/resilience"
	"finbench/internal/serve/pricecache"
)

// ReplicaStatus is one replica's observable routing state.
type ReplicaStatus struct {
	URL       string                     `json:"url"`
	Healthy   bool                       `json:"healthy"`
	Draining  bool                       `json:"draining"`
	Routable  bool                       `json:"routable"`
	LoadUnits int64                      `json:"load_units"`
	Inflight  int64                      `json:"inflight"`
	Served    uint64                     `json:"served"`
	Breaker   resilience.BreakerSnapshot `json:"breaker"`
}

// StatszResponse is the router's GET /statsz body.
type StatszResponse struct {
	Replicas []ReplicaStatus `json:"replicas"`

	Requests  uint64 `json:"requests"`
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
	// HedgeWins is always 0: the router does not hedge. The field and
	// its key stay only until the frozen benchmark/ package, which reads
	// them, can be corrected (ROADMAP, benchmark-correction item).
	HedgeWins    uint64 `json:"hedge_wins"`
	NoReplica    uint64 `json:"no_replica"`
	Corrupt      uint64 `json:"corrupt_responses"`
	BudgetSpent  uint64 `json:"retry_budget_spent"`
	BudgetDenied uint64 `json:"retry_budget_denied"`
	HealthSweeps uint64 `json:"health_sweeps"`

	// ScenarioRequests counts /scenario requests; ScenarioScattered the
	// subset split across replicas; ScenarioPartitions the sub-range
	// dispatches those splits produced.
	ScenarioRequests   uint64 `json:"scenario_requests"`
	ScenarioScattered  uint64 `json:"scenario_scattered"`
	ScenarioPartitions uint64 `json:"scenario_partitions"`

	// StreamRequests counts /stream subscriptions; StreamPartitions the
	// per-replica partition streams they opened; StreamResubscribes the
	// failover re-subscriptions after a replica's stream ended;
	// StreamSlowDrops the clients disconnected for falling behind.
	StreamRequests     uint64 `json:"stream_requests"`
	StreamPartitions   uint64 `json:"stream_partitions"`
	StreamResubscribes uint64 `json:"stream_resubscribes"`
	StreamSlowDrops    uint64 `json:"stream_slow_drops"`

	UptimeS float64 `json:"uptime_s"`

	// Cache is the router-level content cache's counters (a fixed
	// struct, so snapshot encoding stays deterministic); nil when
	// caching is disabled.
	Cache *pricecache.Stats `json:"cache,omitempty"`
}

// HealthzResponse is the router's GET /healthz body.
type HealthzResponse struct {
	Status        string `json:"status"`
	RoutableCount int    `json:"replicas_routable"`
	TotalCount    int    `json:"replicas_total"`
}

// Snapshot assembles the current StatszResponse.
func (r *Router) Snapshot() StatszResponse {
	snap := StatszResponse{
		Requests:     r.requests.Load(),
		Retries:      r.retries.Load(),
		Failovers:    r.failovers.Load(),
		NoReplica:    r.noReplica.Load(),
		Corrupt:      r.corrupt.Load(),
		HealthSweeps: r.healthSweeps.Load(),
		UptimeS:      time.Since(r.start).Seconds(),

		ScenarioRequests:   r.scenarioRequests.Load(),
		ScenarioScattered:  r.scenarioScattered.Load(),
		ScenarioPartitions: r.scenarioPartitionsSent.Load(),

		StreamRequests:     r.streamRequests.Load(),
		StreamPartitions:   r.streamPartitions.Load(),
		StreamResubscribes: r.streamResubscribes.Load(),
		StreamSlowDrops:    r.streamSlowDrops.Load(),
	}
	snap.BudgetSpent, snap.BudgetDenied = r.budget.Counters()
	if r.cache != nil {
		cs := r.cache.Snapshot()
		snap.Cache = &cs
	}
	for _, rep := range r.replicas {
		snap.Replicas = append(snap.Replicas, ReplicaStatus{
			URL:       rep.url,
			Healthy:   rep.healthy.Load(),
			Draining:  rep.draining.Load(),
			Routable:  rep.routable(),
			LoadUnits: rep.loadUnits.Load(),
			Inflight:  rep.inflight.Load(),
			Served:    rep.served.Load(),
			Breaker:   rep.breaker.Snapshot(),
		})
	}
	return snap
}

func (r *Router) handleStatsz(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	snap := r.Snapshot()
	writeJSON(w, http.StatusOK, &snap)
}

// handleHealthz reports the router's own liveness: 200 while at least
// one replica is routable, 503 otherwise (so a front-tier load balancer
// can drain a router whose whole shard is down).
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	h := HealthzResponse{Status: "ok", TotalCount: len(r.replicas)}
	for _, rep := range r.replicas {
		if rep.routable() {
			h.RoutableCount++
		}
	}
	if h.RoutableCount == 0 {
		h.Status = "unroutable"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, &h)
		return
	}
	writeJSON(w, http.StatusOK, &h)
}
