package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"finbench"
	"finbench/internal/scenario"
	"finbench/internal/serve"
	"finbench/internal/serve/coalesce"
	"finbench/internal/serve/deadline"
	"finbench/internal/serve/wire"
)

// The in-process replay. The generated requests of every workload are
// pushed, in request order, through two things: the real handler
// (serve.Server or, for the routed workloads, a shard.Router over two
// in-process servers), and the chain of public layer calls that handler
// is built from — decode, deadline, coalesce or bypass, kernel, encode —
// made by this file with one span per call. The handler's time less the
// chain's self times is what no layer accounts for: admission, stats,
// header writes and net/http plumbing. Unattributed time is a finding.

// replayer holds the in-process servers the replay drives.
type replayer struct {
	tr    *tracer
	srv   *serve.Server
	co    *coalesce.Coalescer
	fleet *localFleet
	cache *localFleet // the same, with the batch_zipf_routed router cache
	next  int64
}

func newReplayer(tr *tracer) (*replayer, error) {
	fleet, err := newLocalFleet(0)
	if err != nil {
		return nil, err
	}
	cache, err := newLocalFleet(zipfCacheBytes)
	if err != nil {
		fleet.close()
		return nil, err
	}
	return &replayer{
		tr:    tr,
		srv:   serve.New(serve.Config{}),
		co:    newCoalescer(),
		fleet: fleet,
		cache: cache,
	}, nil
}

func (rp *replayer) close() {
	rp.srv.Close()
	rp.co.Close()
	rp.fleet.close()
	rp.cache.close()
}

// replay runs every request of in through the handler and the chain.
func (rp *replayer) replay(w *workload, in *inputs) error {
	for i := range in.schedule {
		r := in.at(int64(i))
		rp.next++
		id := rp.next
		attrs := map[string]string{"workload": w.name, "endpoint": r.path()}
		root := rp.tr.begin("replay.request", id, 0, attrs)
		err := rp.one(w, r, id, root, attrs)
		rp.tr.end(root)
		if err != nil {
			return fmt.Errorf("replay of %s request %d: %w", w.name, i, err)
		}
	}
	return nil
}

func (rp *replayer) one(w *workload, r *request, id int64, root int32, attrs map[string]string) error {
	body, err := r.appendBody(nil)
	if err != nil {
		return err
	}
	if w.routed {
		fleet := rp.fleet
		if w.cacheBytes > 0 {
			fleet = rp.cache
		}
		if err := rp.handler("shard.route", fleet.router, r, id, root, attrs); err != nil {
			return err
		}
	}
	if err := rp.handler("serve.handler", rp.srv, r, id, root, attrs); err != nil {
		return err
	}
	chain := rp.tr.begin("layers", id, root, attrs)
	switch r.kind {
	case kindGreeks:
		err = rp.greeksChain(body, id, chain)
	case kindScenario:
		err = rp.scenarioChain(body, id, chain)
	default:
		err = rp.priceChain(r, body, id, chain)
	}
	rp.tr.end(chain)
	return err
}

// handler pushes r through h and records its span; under serve.handler
// the duration is the endpoint's whole, against which the chain is set.
func (rp *replayer) handler(name string, h http.Handler, r *request, id int64, parent int32, attrs map[string]string) error {
	call, err := handlerCall(h, r)
	if err != nil {
		return err
	}
	sp := rp.tr.begin(name, id, parent, attrs)
	code := call()
	rp.tr.end(sp)
	if code != http.StatusOK {
		return fmt.Errorf("%s answered %d", name, code)
	}
	return nil
}

// leaf times one layer call as a span under parent.
func (rp *replayer) leaf(name string, id int64, parent int32, f func()) {
	sp := rp.tr.begin(name, id, parent, nil)
	f()
	rp.tr.end(sp)
}

// acquire takes the request's deadline context the way a handler does
// (serve's default 30 s request timeout), as a span under parent.
func (rp *replayer) acquire(id int64, parent int32) (dctx *deadline.Ctx) {
	rp.leaf("deadline.acquire", id, parent, func() {
		dctx = deadline.Acquire(context.Background(), time.Now().Add(30*time.Second))
	})
	return dctx
}

// priceChain is handlePrice rebuilt from the layers' public functions.
func (rp *replayer) priceChain(r *request, body []byte, id int64, parent int32) error {
	var (
		req    *wire.PriceRequest
		method finbench.Method
		err    error
	)
	rp.leaf("wire.decode", id, parent, func() {
		if r.kind == kindColumnar {
			req, method, err = wire.DecodeColumnarRequest(body)
		} else {
			req, method, err = wire.DecodeRequest(body)
		}
	})
	if err != nil {
		return err
	}
	defer wire.PutRequest(req)
	cfg := req.Config.ToConfig()
	cfg = cfg.Resolved()
	n := req.NumOptions()

	dctx := rp.acquire(id, parent)
	defer dctx.Release()

	resp := wire.GetPriceResponse()
	defer wire.PutPriceResponse(resp)
	resp.Method = method.String()
	resp.Config = wire.FromConfig(cfg)
	resp.SizedResults(n)
	switch {
	case method != finbench.ClosedForm:
		resp.Engine = "scalar"
		for i := range req.Options {
			var res finbench.Result
			rp.leaf("finbench.price", id, parent, func() {
				res, err = finbench.PriceCtx(dctx, req.Options[i].ToOption(), market, method, &cfg)
			})
			if err != nil {
				return err
			}
			resp.Results[i] = wire.Result{Price: res.Price, StdErr: res.StdErr}
		}
	case n >= coalesceMaxBatch: // the request is a mega-batch on its own
		resp.Engine = "batch-advanced"
		b := coalesce.GetBatch(n)
		defer coalesce.PutBatch(b)
		fill(b.Spots, b.Strikes, b.Expiries, req)
		rp.leaf("finbench.batch", id, parent, func() {
			err = finbench.PriceBatchCtx(dctx, b, market, finbench.LevelAdvanced)
		})
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			resp.Results[i].Price = pick(req.IsPut(i), b.Calls[i], b.Puts[i])
		}
	default:
		resp.Engine = "batch-advanced"
		t := coalesce.GetTicket(n)
		defer coalesce.PutTicket(t)
		fill(t.Spots, t.Strikes, t.Expiries, req)
		rp.leaf("coalesce.price", id, parent, func() { err = rp.co.Price(t) })
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			resp.Results[i].Price = pick(req.IsPut(i), t.Calls[i], t.Puts[i])
		}
	}

	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	rp.leaf("wire.encode", id, parent, func() {
		if r.kind == kindColumnar {
			buf.B, err = wire.AppendColumnarResponse(buf.B[:0], resp)
		} else {
			buf.B, _ = wire.AppendPriceResponse(buf.B[:0], resp)
		}
	})
	return err
}

func pick(put bool, call, putPrice float64) float64 {
	if put {
		return putPrice
	}
	return call
}

// fill copies the request's contracts into SOA columns, either framing.
func fill(spots, strikes, expiries []float64, req *wire.PriceRequest) {
	if c := req.Columnar; c != nil {
		copy(spots, c.Spots)
		copy(strikes, c.Strikes)
		copy(expiries, c.Expiries)
		return
	}
	for i := range req.Options {
		spots[i], strikes[i], expiries[i] = req.Options[i].Spot, req.Options[i].Strike, req.Options[i].Expiry
	}
}

// greeksChain is handleGreeks rebuilt from public functions.
func (rp *replayer) greeksChain(body []byte, id int64, parent int32) error {
	var (
		req *wire.GreeksRequest
		err error
	)
	rp.leaf("wire.decode", id, parent, func() { req, err = wire.DecodeGreeksRequest(body) })
	if err != nil {
		return err
	}
	defer wire.PutGreeksRequest(req)
	dctx := rp.acquire(id, parent)
	defer dctx.Release()
	resp := wire.GetGreeksResponse()
	defer wire.PutGreeksResponse(resp)
	resp.SizedResults(len(req.Options))
	rp.leaf("finbench.greeks", id, parent, func() {
		for i := range req.Options {
			var g finbench.Greeks
			if g, err = finbench.ComputeGreeks(req.Options[i].ToOption(), market); err != nil {
				return
			}
			resp.Results[i] = wire.Greeks{Delta: g.DeltaCall, Gamma: g.Gamma, Vega: g.Vega, Theta: g.ThetaCall, Rho: g.RhoCall}
			if req.Options[i].Type == "put" {
				resp.Results[i].Delta, resp.Results[i].Theta, resp.Results[i].Rho = g.DeltaPut, g.ThetaPut, g.RhoPut
			}
		}
	})
	if err != nil {
		return err
	}
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	rp.leaf("wire.encode", id, parent, func() { buf.B, _ = wire.AppendGreeksResponse(buf.B[:0], resp) })
	return nil
}

// scenarioChain is handleScenario rebuilt from public functions, with
// the partition step the router adds.
func (rp *replayer) scenarioChain(body []byte, id int64, parent int32) error {
	var (
		req scenario.Request
		err error
	)
	rp.leaf("json.decode", id, parent, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return err
	}
	rp.leaf("scenario.validate", id, parent, func() {
		err = req.Validate(market.Volatility, scenario.Limits{MaxPositions: 262144, MaxCells: 16384})
	})
	if err != nil {
		return err
	}
	// Partitioning is the router's step, not the replica handler's;
	// unattributedFrac leaves its span out.
	rp.leaf("scenario.partition", id, parent, func() { _ = scenario.PartitionCells(&req, 2) })

	dctx := rp.acquire(id, parent)
	defer dctx.Release()
	var (
		base float64
		pnl  []float64
	)
	rp.leaf("scenario.evaluate", id, parent, func() {
		base, pnl, err = scenario.EvaluateCells(dctx, &req, market, 0, req.NumCells())
	})
	if err != nil {
		return err
	}
	var out *scenario.Response
	rp.leaf("scenario.finalize", id, parent, func() { out = scenario.Finalize(&req, base, 0, pnl) })
	var enc bytes.Buffer
	rp.leaf("json.encode", id, parent, func() { err = json.NewEncoder(&enc).Encode(out) })
	return err
}
