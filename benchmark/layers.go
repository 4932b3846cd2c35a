package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"finbench"
	"finbench/internal/benchreg"
	"finbench/internal/blackscholes"
	"finbench/internal/layout"
	"finbench/internal/parallel"
	"finbench/internal/rng"
	"finbench/internal/scenario"
	"finbench/internal/serve"
	"finbench/internal/serve/coalesce"
	"finbench/internal/serve/deadline"
	"finbench/internal/serve/pricecache"
	"finbench/internal/serve/shard"
	"finbench/internal/serve/stream"
	"finbench/internal/serve/stream/ticker"
	"finbench/internal/serve/wire"
	"finbench/internal/vec"
	kernelwl "finbench/internal/workload"
)

// The in-process half of the traced run. Nothing outside benchmark/ is
// instrumented, so a layer is measured from outside: the benchmark calls
// the layer's public functions with inputs generated from the workload
// seed and times the calls. Each group below fills the per-layer metrics
// of one repo module.

// layers carries what the groups share: the timing options, the metric
// set, and one request of each shape the workloads send, generated once
// from the seed.
type layers struct {
	seed uint64
	opts benchreg.Opts
	m    *metricSet

	quote, greeks *request // 16 options, /price and /greeks
	batch         *request // 1024-option JSON /price
	bulk          *request // 32768-option columnar frame
	scen          *request // 1024 positions x 288 cells
	heavy         *inputs  // one 9:1:1 block
	kernelOpts    []wire.Option
}

// timed runs f under the repo's one timing method (median over
// repetitions, each repetition at least opts.MinDuration long).
func (l *layers) timed(items int, f func()) benchreg.Sample {
	return benchreg.Measure(items, f, l.opts)
}

// measureLayers fills every metric that comes from calling a layer
// in-process; the ones that come from the deployed servers are set by
// the traced run itself.
func measureLayers(seed uint64, m *metricSet) error {
	quote := genQuote(seed, 5)
	l := &layers{
		seed: seed, m: m, opts: benchreg.Opts{Warmup: 1, Reps: 3, MinDuration: 15 * time.Millisecond},
		quote:      &quote.pool[0],
		greeks:     &quote.pool[4],
		batch:      &genZipf(seed, 1, zipfBatchOptions, 1, zipfSkew).pool[0],
		bulk:       &genBulk(seed, 1, bulkFrameOptions).pool[0],
		scen:       &genScenario(seed, 1, scenarioPositions, scenarioGrid).pool[0],
		heavy:      genHeavy(seed, 1),
		kernelOpts: contracts(rand.New(rand.NewSource(subSeed(seed, 7))), bulkFrameOptions),
	}
	l.host()
	l.wire()
	l.deadlineLayer()
	l.coalesce()
	l.pricecache()
	l.parallel()
	l.blackscholes()
	l.kernels()
	l.scenario()
	l.stream()
	if err := l.serve(); err != nil {
		return err
	}
	return l.shard()
}

// batchOf builds a finbench.Batch over n generated contracts.
func batchOf(opts []wire.Option) *finbench.Batch {
	b := finbench.NewBatch(len(opts))
	for i := range opts {
		b.Spots[i], b.Strikes[i], b.Expiries[i] = opts[i].Spot, opts[i].Strike, opts[i].Expiry
	}
	return b
}

// priceResponse builds the 200 a server would encode for opts.
func priceResponse(opts []wire.Option) *wire.PriceResponse {
	b := batchOf(opts)
	_ = finbench.PriceBatch(b, market, finbench.LevelAdvanced) // LevelAdvanced is a known level; the only error is an unknown one
	resp := &wire.PriceResponse{
		Method: "closed-form", Engine: "batch-advanced", BatchOptions: len(opts),
		Config:  wire.FromConfig((&finbench.Config{}).Resolved()),
		Results: make([]wire.Result, len(opts)),
	}
	for i := range opts {
		resp.Results[i].Price = b.Calls[i]
		if opts[i].Type == "put" {
			resp.Results[i].Price = b.Puts[i]
		}
	}
	return resp
}

func (l *layers) wire() {
	big := l.batch
	body, _ := big.appendBody(nil) // JSON price bodies cannot fail to encode
	n := len(big.opts)
	s := l.timed(n, func() {
		req, _, err := wire.DecodeRequest(body)
		if err == nil {
			wire.PutRequest(req)
		}
	})
	l.m.set("wire.json_decode_ns_per_opt", s.MedianSec*1e9/float64(n))

	resp := priceResponse(big.opts)
	var buf []byte
	s = l.timed(n, func() { buf, _ = wire.AppendPriceResponse(buf[:0], resp) })
	l.m.set("wire.json_encode_ns_per_opt", s.MedianSec*1e9/float64(n))

	greeks := &wire.GreeksResponse{Results: make([]wire.Greeks, 16)}
	for i := range greeks.Results {
		g, _ := finbench.ComputeGreeks(big.opts[i].ToOption(), market) // generated contracts are valid
		greeks.Results[i] = wire.Greeks{Delta: g.DeltaCall, Gamma: g.Gamma, Vega: g.Vega, Theta: g.ThetaCall, Rho: g.RhoCall}
	}
	s = l.timed(16, func() { buf, _ = wire.AppendGreeksResponse(buf[:0], greeks) })
	l.m.set("wire.greeks_encode_ns_per_opt", s.MedianSec*1e9/16)

	frame, _ := l.bulk.appendBody(nil) // columnar frames cannot fail to encode
	s = l.timed(bulkFrameOptions, func() {
		req, _, err := wire.DecodeColumnarRequest(frame)
		if err == nil {
			wire.PutRequest(req)
		}
	})
	l.m.set("wire.columnar_decode_ns_per_opt", s.MedianSec*1e9/bulkFrameOptions)

	bulkResp := &wire.PriceResponse{Method: "closed-form", Engine: "batch-advanced", Results: make([]wire.Result, bulkFrameOptions)}
	s = l.timed(bulkFrameOptions, func() { buf, _ = wire.AppendColumnarResponse(buf[:0], bulkResp) })
	l.m.set("wire.columnar_encode_ns_per_opt", s.MedianSec*1e9/bulkFrameOptions)

	smallBody, _ := l.quote.appendBody(nil) // JSON price bodies cannot fail to encode
	smallResp := priceResponse(l.quote.opts)
	s = l.timed(1, func() {
		req, _, err := wire.DecodeRequest(smallBody)
		if err == nil {
			wire.PutRequest(req)
		}
		buf, _ = wire.AppendPriceResponse(buf[:0], smallResp)
	})
	l.m.set("wire.allocs_per_req", s.AllocsPerOp)
}

func (l *layers) deadlineLayer() {
	ctx := context.Background()
	far := time.Now().Add(time.Hour)
	s := l.timed(1, func() { deadline.Acquire(ctx, far).Release() })
	l.m.set("deadline.acquire_release_ns", s.MedianSec*1e9)
}

// coalesce measures what a ticket waits for company: the time Price
// blocks, less the kernel time of the batch it was priced in, for a lone
// 16-option ticket and for two submitters arriving together.
func (l *layers) coalesce() {
	co := newCoalescer()
	defer co.Close()
	opts := l.quote.opts

	kernel := func(n int) float64 {
		b := batchOf(append(append([]wire.Option(nil), opts...), opts...)[:n])
		s := l.timed(n, func() { _ = finbench.PriceBatchCtx(context.Background(), b, market, finbench.LevelAdvanced) })
		return s.MedianSec * 1e6
	}
	submit := func(rounds int) []float64 {
		waits := make([]float64, 0, rounds)
		for i := 0; i < rounds; i++ {
			t := coalesce.GetTicket(len(opts))
			for j := range opts {
				t.Spots[j], t.Strikes[j], t.Expiries[j] = opts[j].Spot, opts[j].Strike, opts[j].Expiry
			}
			start := time.Now()
			err := co.Price(t)
			d := time.Since(start)
			coalesce.PutTicket(t)
			if err == nil {
				waits = append(waits, float64(d)/1e3)
			}
		}
		return waits
	}
	const rounds = 128
	lone := submit(rounds)
	l.m.set("coalesce.wait_us_p50", percentile(sortedCopy(lone), 0.5)-kernel(16))

	pair := make([][]float64, 2)
	var wg sync.WaitGroup
	for c := range pair {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pair[c] = submit(rounds)
		}(c)
	}
	wg.Wait()
	l.m.set("coalesce.wait_us_pair_p50", percentile(sortedCopy(append(pair[0], pair[1]...)), 0.5)-kernel(32))
}

func (l *layers) pricecache() {
	opts := l.batch.opts
	cs := make([]pricecache.Contract, len(opts))
	for i := range opts {
		cs[i] = pricecache.Contract{Type: opts[i].Type, Style: opts[i].Style, Spot: opts[i].Spot, Strike: opts[i].Strike, Expiry: opts[i].Expiry}
	}
	var key pricecache.Key
	s := l.timed(len(cs), func() { key = pricecache.Digest("closed-form", 0, 0, pricecache.Params{}, cs) })
	l.m.set("pricecache.digest_ns_per_opt", s.MedianSec*1e9/float64(len(cs)))

	// The batch_zipf_routed budget, filled to the brim with bodies of the
	// size that workload stores, so every insert below evicts.
	const budget = zipfCacheBytes
	body, _ := wire.AppendPriceResponse(nil, priceResponse(opts))
	cache := pricecache.New(budget, 0)
	ctx := context.Background()
	store := func(context.Context) ([]byte, bool, error) { return body, true, nil }
	var next uint64
	fresh := func() pricecache.Key {
		next++
		var k pricecache.Key
		for i := 0; i < 8; i++ {
			k[i] = byte(next >> (8 * i))
		}
		return k
	}
	for i := 0; i < 2*budget/len(body); i++ {
		_, _, _ = cache.Do(ctx, fresh(), store) // store never fails
	}
	_, _, _ = cache.Do(ctx, key, store) // store never fails
	s = l.timed(1, func() { _, _, _ = cache.Do(ctx, key, store) })
	l.m.set("pricecache.hit_us", s.MedianSec*1e6)
	s = l.timed(1, func() { _, _, _ = cache.Do(ctx, fresh(), store) })
	l.m.set("pricecache.miss_insert_us", s.MedianSec*1e6)
}

func (l *layers) parallel() {
	p := runtime.GOMAXPROCS(0)
	s := l.timed(1, func() { parallel.For(p, func(lo, hi int) {}) })
	l.m.set("parallel.launch_ns", s.MedianSec*1e9)

	// Black-Scholes: one 32768-option batch, forked by the kernel itself.
	b := batchOf(l.kernelOpts)
	price := func() { _ = finbench.PriceBatchCtx(context.Background(), b, market, finbench.LevelAdvanced) }
	tp := l.timed(b.Len(), price).MedianSec
	runtime.GOMAXPROCS(1)
	t1 := l.timed(b.Len(), price).MedianSec
	runtime.GOMAXPROCS(p)
	l.m.set("parallel.scaling_eff_bs", t1/(float64(p)*tp))

	// Monte Carlo is serial inside one option, so the server scales it by
	// pricing concurrent requests: one caller against P callers at once.
	o := finbench.Option{Spot: 100, Strike: 105, Expiry: 1}
	mc := func() { _, _ = finbench.PriceCtx(context.Background(), o, market, finbench.MonteCarlo, nil) }
	one := l.timed(1, mc).MedianSec
	all := l.timed(p, func() {
		var wg sync.WaitGroup
		for i := 0; i < p; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mc()
			}()
		}
		wg.Wait()
	}).MedianSec
	l.m.set("parallel.scaling_eff_mc", one/all)
}

func (l *layers) blackscholes() {
	ctx := context.Background()
	opts := l.kernelOpts
	big := batchOf(opts)
	s := l.timed(big.Len(), func() { _ = finbench.PriceBatchCtx(ctx, big, market, finbench.LevelAdvanced) })
	l.m.set("blackscholes.advanced_mopts_s", s.OpsPerSec/1e6)
	// 24 bytes of inputs read and 16 of prices written per option,
	// computed from the array sizes, against the measured triad rate.
	l.m.set("blackscholes.roofline_frac", ratio(s.OpsPerSec*40/1e9, l.m.values["host.stream_triad_gb_s"].Value))

	small := batchOf(opts[:16])
	s = l.timed(16, func() { _ = finbench.PriceBatchCtx(ctx, small, market, finbench.LevelAdvanced) })
	l.m.set("blackscholes.advanced16_mopts_s", s.OpsPerSec/1e6)

	soa := &layout.SOA{S: big.Spots, X: big.Strikes, T: big.Expiries, Call: big.Calls, Put: big.Puts}
	out := blackscholes.NewGreeksSOA(big.Len())
	mkt := kernelwl.MarketParams{R: market.Rate, Sigma: market.Volatility}
	s = l.timed(big.Len(), func() { blackscholes.GreeksBatch(soa, out, mkt, vec.MaxWidth, nil) })
	l.m.set("blackscholes.greeks_mopts_s", s.OpsPerSec/1e6)

	book := batchOf(opts[:scenarioPositions])
	rows := make([]finbench.GridRow, scenarioGrid[0]*scenarioGrid[1]*scenarioGrid[2])
	for i := range rows {
		rows[i] = finbench.GridRow{Market: market, Scale: 1 + 0.001*float64(i)}
	}
	var sink float64
	s = l.timed(book.Len()*len(rows), func() {
		_ = finbench.PriceBatchGridCtx(ctx, book, rows, func(_ int, calls, _ []float64) error {
			sink += calls[0]
			return nil
		})
	})
	l.m.set("blackscholes.grid_mvals_s", s.OpsPerSec/1e6)

	mix, err := finbench.ProfileBatch(big, market, finbench.LevelAdvanced, 8)
	if err != nil || mix.Items == 0 {
		l.m.set("blackscholes.vecops_per_opt", 0)
		return
	}
	l.m.set("blackscholes.vecops_per_opt", float64(mix.Total())/float64(mix.Items))
}

// kernels times the paper's heavy kernels at the heavy_mix sizes, and the
// scenario generators and path simulator that have no end-to-end workload.
func (l *layers) kernels() {
	ctx := context.Background()
	cfg := (&finbench.Config{}).Resolved()
	put := finbench.Option{Type: finbench.Put, Style: finbench.American, Spot: 100, Strike: 105, Expiry: 1}
	call := finbench.Option{Spot: 100, Strike: 105, Expiry: 1}

	s := l.timed(1, func() { _, _ = finbench.PriceCtx(ctx, put, market, finbench.BinomialTree, nil) })
	l.m.set("binomial.opts_s", s.OpsPerSec)
	l.m.set("binomial.mnodes_s", s.OpsPerSec*float64(cfg.BinomialSteps)*float64(cfg.BinomialSteps+1)/2/1e6)

	s = l.timed(1, func() { _, _ = finbench.PriceCtx(ctx, put, market, finbench.FiniteDifference, nil) })
	l.m.set("cranknicolson.opts_s", s.OpsPerSec)
	l.m.set("cranknicolson.mcells_s", s.OpsPerSec*float64(cfg.GridPoints)*float64(cfg.TimeSteps)/1e6)

	s = l.timed(cfg.MCPaths, func() { _, _ = finbench.PriceCtx(ctx, call, market, finbench.MonteCarlo, nil) })
	l.m.set("montecarlo.mpaths_s", s.OpsPerSec/1e6)

	buf := make([]float64, 1<<16)
	st := rng.NewStream(0, l.seed)
	s = l.timed(len(buf), func() { st.NormalICDF(buf) })
	l.m.set("rng.normals_m_s", s.OpsPerSec/1e6)
	s = l.timed(len(buf), func() { st.Uniform(buf) })
	l.m.set("rng.uniforms_m_s", s.OpsPerSec/1e6)

	book := genScenario(l.seed, 1, 64, [3]int{1, 1, 1}).pool[0].scen
	for _, model := range []string{scenario.ModelHeston, scenario.ModelJump, scenario.ModelBasket} {
		req := *book
		req.Generators = []scenario.Generator{{Model: model, Scenarios: 256, Seed: l.seed | 1}}
		s = l.timed(256, func() { _, _, _ = scenario.EvaluateCells(ctx, &req, market, 0, req.NumCells()) })
		l.m.set("montecarlo."+model+"_scen_s", s.OpsPerSec)
	}

	// The paper's Fig. 6: 64-step double-precision bridge paths.
	ps, err := finbench.NewPathSimulator(64, 1, l.seed)
	if err != nil {
		l.m.set("brownian.mpaths_s", 0)
		return
	}
	s = l.timed(4096, func() { _ = ps.Simulate(4096, 100, market) })
	l.m.set("brownian.mpaths_s", s.OpsPerSec/1e6)
}

func (l *layers) scenario() {
	ctx := context.Background()
	req := l.scen.scen
	cells := req.NumCells()
	var base float64
	var pnl []float64
	s := l.timed(len(req.Portfolio)*cells, func() { base, pnl, _ = scenario.EvaluateCells(ctx, req, market, 0, cells) })
	l.m.set("scenario.evaluate_mvals_s", s.OpsPerSec/1e6)
	s = l.timed(1, func() { _ = scenario.Finalize(req, base, 0, pnl) })
	l.m.set("scenario.finalize_us", s.MedianSec*1e6)
	s = l.timed(1, func() { _ = scenario.PartitionCells(req, 2) })
	l.m.set("scenario.partition_us", s.MedianSec*1e6)

	// "Is compensation free?": the engine's Neumaier-Kahan accumulator
	// against the naive loop it replaced, over the same values.
	xs := make([]float64, 1<<16)
	rng.NewStream(0, l.seed).NormalICDF(xs)
	var sink float64
	s = l.timed(len(xs), func() {
		var k scenario.Sum
		for _, x := range xs {
			k.Add(x)
		}
		sink += k.Value()
	})
	l.m.set("scenario.kahan_ns_per_add", s.MedianSec*1e9/float64(len(xs)))
	s = l.timed(len(xs), func() {
		var t float64
		for _, x := range xs {
			t += x
		}
		sink += t
	})
	l.m.set("scenario.plain_ns_per_add", s.MedianSec*1e9/float64(len(xs)))
}

// stream drives a manual hub of 1024 contracts with four in-process
// subscribers that drain their frames, as the SSE handlers would.
func (l *layers) stream() {
	hub := func(threshold float64) *stream.Hub {
		return stream.New(stream.Config{
			Universe: 1024, Seed: l.seed | 1,
			SpotThreshold: threshold, VolThreshold: threshold, RateThreshold: threshold,
			Budget: time.Hour, // never degrade a timed pass
		}, nil)
	}
	dirty := hub(-1)
	var frames, frameBytes, entries int64
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		sub, err := dirty.Subscribe(nil)
		if err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case f := <-sub.C():
					mu.Lock()
					frames++
					frameBytes += int64(len(f))
					entries += int64(bytes.Count(f, []byte(`"id":`)))
					mu.Unlock()
				case <-stop:
					return
				}
			}
		}()
	}
	var st ticker.State
	dirty.Source().Next(&st)
	dirty.Step(&st) // untimed first pass seeds every baseline
	s := l.timed(1, func() {
		dirty.Source().Next(&st)
		dirty.Step(&st)
	})
	close(stop)
	wg.Wait()
	l.m.set("stream.step_all_dirty_us", s.MedianSec*1e6)
	// Every all-dirty pass pushes the subscribed universe to each of the
	// four subscribers (an overflowing buffer turns a delta into a
	// same-sized resync snapshot).
	l.m.set("stream.entries_s", 4*1024/s.MedianSec)
	l.m.set("stream.frame_bytes_per_entry", ratio(float64(frameBytes), float64(entries)))

	clean := hub(1e9)
	clean.Source().Next(&st)
	clean.Step(&st)
	s = l.timed(1, func() {
		clean.Source().Next(&st)
		clean.Step(&st)
	})
	l.m.set("stream.step_clean_us", s.MedianSec*1e6)

	src := ticker.NewSource(l.seed|1, 64, market.Volatility, market.Rate)
	s = l.timed(1, func() { src.Next(&st) })
	l.m.set("ticker.next_ns", s.MedianSec*1e9)
}

// discard is a reusable http.ResponseWriter that drops the body, so the
// harness allocates nothing per call and only the server's allocations
// are counted.
type discard struct {
	header http.Header
	code   int
}

func (d *discard) Header() http.Header         { return d.header }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(c int)           { d.code = c }

// rewind is a request body that can be served again.
type rewind struct{ bytes.Reader }

func (*rewind) Close() error { return nil }

// handlerCall returns a function that pushes r through h once per call,
// reusing one http.Request.
func handlerCall(h http.Handler, r *request) (func() int, error) {
	payload, err := r.appendBody(nil)
	if err != nil {
		return nil, err
	}
	body := &rewind{}
	req := httptest.NewRequest(http.MethodPost, r.path(), nil)
	req.Body = body
	req.ContentLength = int64(len(payload))
	req.Header.Set("Content-Type", r.contentType())
	rec := &discard{header: make(http.Header)}
	return func() int {
		body.Reset(payload)
		rec.code = 0
		clear(rec.header)
		h.ServeHTTP(rec, req)
		return rec.code
	}, nil
}

// serve times whole requests through serve.Server's handler, one per
// endpoint and size the workloads use.
func (l *layers) serve() error {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	byMethod := func(method string) *request {
		for i := range l.heavy.pool {
			if l.heavy.pool[i].method == method {
				return &l.heavy.pool[i]
			}
		}
		return &l.heavy.pool[0]
	}
	rows := []struct {
		name  string
		scale float64
		req   *request
	}{
		{"serve.price_json16_us", 1e6, l.quote},
		{"serve.greeks16_us", 1e6, l.greeks},
		{"serve.price_json1024_us", 1e6, l.batch},
		{"serve.price_columnar32k_us", 1e6, l.bulk},
		{"serve.heavy_binomial_ms", 1e3, byMethod("binomial-tree")},
		{"serve.heavy_cn_ms", 1e3, byMethod("crank-nicolson")},
		{"serve.heavy_mc_ms", 1e3, byMethod("monte-carlo")},
		{"serve.scenario_ms", 1e3, l.scen},
	}
	for _, row := range rows {
		call, err := handlerCall(srv, row.req)
		if err != nil {
			return err
		}
		if code := call(); code != http.StatusOK {
			return fmt.Errorf("%s: in-process handler answered %d", row.name, code)
		}
		s := l.timed(1, func() { call() })
		l.m.set(row.name, s.MedianSec*row.scale)
		if row.name == "serve.price_json16_us" {
			l.m.set("serve.allocs_per_req", s.AllocsPerOp)
		}
	}
	return nil
}

// post sends body to url and drains the reply; it is the "direct" side of
// the router-overhead comparisons.
func post(client *http.Client, url, ctype string, body []byte) error {
	resp, err := client.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST %s answered %d", url, resp.StatusCode)
	}
	return err
}

// localFleet is a router over two in-process servers on loopback
// listeners: the deployed shape without the processes.
type localFleet struct {
	servers  []*serve.Server
	backends []*httptest.Server
	router   *shard.Router
}

func newLocalFleet(cacheBytes int64) (*localFleet, error) {
	f := &localFleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(s.Handler())
		f.servers = append(f.servers, s)
		f.backends = append(f.backends, ts)
		urls = append(urls, ts.URL)
	}
	r, err := shard.New(shard.Config{Backends: urls, CacheBytes: cacheBytes})
	if err != nil {
		f.close()
		return nil, err
	}
	r.Start()
	f.router = r
	return f, nil
}

func (f *localFleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, ts := range f.backends {
		ts.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// shard compares a request sent through the router with the same request
// sent straight to one replica; both cross loopback once per replica hop,
// so the difference is the router's own work.
func (l *layers) shard() error {
	f, err := newLocalFleet(0)
	if err != nil {
		return err
	}
	defer f.close()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	overhead := func(r *request) (float64, error) {
		routed, err := handlerCall(f.router, r)
		if err != nil {
			return 0, err
		}
		if code := routed(); code != http.StatusOK {
			return 0, fmt.Errorf("in-process router answered %d for %s", code, r.path())
		}
		body, _ := r.appendBody(nil) // already encoded once by handlerCall
		url := f.backends[0].URL + r.path()
		if err := post(client, url, r.contentType(), body); err != nil {
			return 0, err
		}
		// Both sides wait out a replica's coalescer window, which jitters
		// by more than the router costs: take more repetitions than the
		// other groups do.
		opts := benchreg.Opts{Warmup: 1, Reps: 7, MinDuration: 20 * time.Millisecond}
		via := benchreg.Measure(1, func() { routed() }, opts).MedianSec
		direct := benchreg.Measure(1, func() { _ = post(client, url, r.contentType(), body) }, opts).MedianSec
		return via - direct, nil
	}
	d, err := overhead(l.batch)
	if err != nil {
		return err
	}
	l.m.set("shard.forward_overhead_us", d*1e6)
	if d, err = overhead(l.scen); err != nil {
		return err
	}
	l.m.set("shard.scatter_overhead_ms", d*1e3)
	return nil
}
