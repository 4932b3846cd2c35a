package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"finbench/internal/scenario"
)

// Scenario scatter-gather: the router's first request-splitting path. A
// /scenario request's closed-form grid cells are partitioned across the
// routable replicas as `cells` sub-range requests, each dispatched
// through the normal retry/failover machinery, so a replica dying
// mid-request only re-routes its unfinished partition. Generator blocks
// are Monte Carlo: each is one indivisible partition with exactly one
// attempt — never split mid-cell, never retried — the same rule that
// keeps Monte Carlo out of retry on /price.
//
// The merge funnels through scenario.Finalize, the same function a lone
// replica uses, and re-reduces the ladder from the merged full surface
// in deterministic cell order. Combined with the response carrying no
// timing field, the routed 200 is byte-identical to a single-process
// answer for any replica count and any partition completion order.

// routeScenario routes one /scenario request, scattering it when there
// is more than one routable replica and the request is splittable.
func (r *Router) routeScenario(w http.ResponseWriter, req *http.Request) {
	r.scenarioRequests.Add(1)
	seq, body, ok := r.front(w, req)
	if !ok {
		return
	}

	var sreq scenario.Request
	decodable := json.Unmarshal(body, &sreq) == nil
	var deadlineMS int64
	if decodable {
		deadlineMS = sreq.DeadlineMS // a failed decode may have set fields
	}
	ctx, cancel := withDeadline(req.Context(), deadlineMS)
	defer cancel()

	parts := r.scenarioPartitions(&sreq, decodable)
	if len(parts) < 2 {
		// Undecodable (backend owns validation and answers 400), already a
		// sub-range, or not worth splitting: one plain dispatch.
		res, err := r.dispatch(ctx, jitterSeed(seq, 0), &exchange{method: req.Method, uri: "/scenario",
			ctype: "application/json", body: body, monteCarlo: decodable && sreq.NumGenCells() > 0})
		if err != nil {
			r.writeRouteError(w, err)
			return
		}
		r.passThrough(w, res)
		return
	}
	r.scenarioScattered.Add(1)
	r.scenarioPartitionsSent.Add(uint64(len(parts)))

	indexOf := make(map[int]int, len(parts)) // partition Start -> index
	for i, p := range parts {
		indexOf[p.Start] = i
	}
	surface := make([]float64, sreq.NumCells())
	bases := make([]float64, len(parts))
	err := scenario.Scatter(ctx, parts, func(ctx context.Context, p scenario.Partition) error {
		i := indexOf[p.Start]
		sub := sreq
		sub.Cells = &scenario.Cells{Start: p.Start, Count: p.Count}
		subBody, err := json.Marshal(&sub)
		if err != nil {
			return err
		}
		res, err := r.dispatch(ctx, jitterSeed(seq, i+1), &exchange{method: req.Method, uri: "/scenario",
			ctype: "application/json", body: subBody, monteCarlo: p.MonteCarlo})
		if err != nil {
			return err
		}
		if res.final.status != http.StatusOK {
			return &httpFailure{rr: res}
		}
		var out scenario.Response
		if err := json.Unmarshal(res.final.body, &out); err != nil ||
			out.Start != p.Start || len(out.PnL) != p.Count {
			r.corrupt.Add(1)
			return fmt.Errorf("replica %s: malformed scenario sub-response for cells [%d,%d)",
				res.final.rep.url, p.Start, p.Start+p.Count)
		}
		copy(surface[p.Start:p.Start+p.Count], out.PnL)
		bases[i] = out.BaseValue
		return nil
	})
	if err != nil {
		// Scatter surfaced the first failing partition in partition order:
		// answer exactly as a plain routed failure with that partition's
		// last backend response would be answered.
		r.writeRouteError(w, err)
		return
	}
	for i := 1; i < len(bases); i++ {
		if bases[i] != bases[0] { // finlint:ignore floateq byte-identity contract: replicas must agree to the bit, a tolerance would merge divergent surfaces
			// Heterogeneous fleet (mismatched market config): refuse to
			// merge answers that disagree on the unshocked book value.
			r.corrupt.Add(1)
			writeError(w, http.StatusBadGateway, "replicas disagree on scenario base value")
			return
		}
	}

	w.Header().Set("X-Finserve-Partitions", fmt.Sprintf("%d", len(parts)))
	writeJSON(w, http.StatusOK, scenario.Finalize(&sreq, bases[0], 0, surface))
}

// scenarioPartitions decides the scatter plan: nil (single dispatch)
// unless the request decoded, is a whole-surface request (a `cells`
// sub-range is already someone else's partition), passes the cheap
// structural checks the partitioner relies on, and there are at least
// two routable replicas to spread over.
func (r *Router) scenarioPartitions(sreq *scenario.Request, decodable bool) []scenario.Partition {
	if !decodable || sreq.Cells != nil || len(sreq.Portfolio) == 0 {
		return nil
	}
	for i := range sreq.Generators {
		if sreq.Generators[i].Scenarios < 1 {
			return nil // backend answers 400; nothing sane to split
		}
	}
	routable := 0
	for _, rep := range r.replicas {
		if rep.routable() {
			routable++
		}
	}
	if routable < 2 || sreq.NumCells() < 2 {
		return nil
	}
	return scenario.PartitionCells(sreq, routable)
}
