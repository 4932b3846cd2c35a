// Package ctxprop seeds deadline-blind kernel entry calls on an HTTP
// handler path. The handler-shaped functions are call-graph roots; the
// plain finbench entry points reached from them must be flagged, while
// identical calls in unreachable functions must not.
package ctxprop

import (
	"context"
	"net/http"

	"finbench"
	"finbench/internal/serve/pricecache"
)

// Handler is an HTTP handler by signature shape, hence a root.
func Handler(w http.ResponseWriter, r *http.Request) {
	priceOne(r.Context())
	priceMany()
	simulate()
}

// priceOne is one hop from the handler and holds its ctx, yet calls the
// deadline-blind entry point.
func priceOne(ctx context.Context) {
	b := finbench.NewBatch(1)
	var m finbench.Market
	_ = finbench.PriceBatch(b, m, 0) // seeded violation
	_ = ctx
}

// priceMany calls the deadline-blind batch entry point.
func priceMany() {
	b := finbench.NewBatch(4)
	var m finbench.Market
	_ = finbench.PriceBatch(b, m, 0) // seeded violation
}

// simulate reaches a kernel entry with no cancellable variant at all.
func simulate() {
	ps, err := finbench.NewPathSimulator(8, 1.0, 1)
	if err != nil {
		return
	}
	var m finbench.Market
	_ = ps.Simulate(4, 100, m) // seeded violation
}

// GoodCtxHandler uses the context-propagating variants: clean.
func GoodCtxHandler(w http.ResponseWriter, r *http.Request) {
	var o finbench.Option
	var m finbench.Market
	_, _ = finbench.PriceCtx(r.Context(), o, m, 0, nil)
	b := finbench.NewBatch(4)
	_ = finbench.PriceBatchCtx(r.Context(), b, m, 0)
}

// OfflineTool calls the plain entry point but is unreachable from any
// handler (the batch-tool/benchmark shape): clean.
func OfflineTool() {
	b := finbench.NewBatch(1)
	var m finbench.Market
	_ = finbench.PriceBatch(b, m, 0)
}

// warmupHandler primes caches before serving; the suppression records
// why the deadline-blind call is deliberate.
func warmupHandler(w http.ResponseWriter, r *http.Request) {
	b := finbench.NewBatch(1)
	var m finbench.Market
	// finlint:ignore ctxprop warmup priming outside the request latency contract
	_ = finbench.PriceBatch(b, m, 0)
}

// sharedCache stands in for a server's response cache.
var sharedCache = pricecache.New(1<<20, 0)

// CacheHandler reaches a deadline-blind kernel entry through a
// singleflight compute closure. The closure body is attributed to the
// function that lexically encloses it, so the call is handler-reachable
// and must be flagged: a cache-miss leader that ignores its ctx keeps
// pricing for a client that has already given up, while the waiters
// parked on the flight correctly time out on their own deadlines.
func CacheHandler(w http.ResponseWriter, r *http.Request) {
	b := finbench.NewBatch(1)
	var m finbench.Market
	key := pricecache.Digest("closed-form", 0, 0, pricecache.Params{}, nil)
	_, _, _ = sharedCache.Do(r.Context(), key, func(ctx context.Context) ([]byte, bool, error) {
		err := finbench.PriceBatch(b, m, 0) // seeded violation
		return nil, false, err
	})
}

// GoodCacheHandler propagates the compute closure's ctx into the kernel:
// the leader's work dies with the leader's deadline. Clean.
func GoodCacheHandler(w http.ResponseWriter, r *http.Request) {
	var o finbench.Option
	var m finbench.Market
	key := pricecache.Digest("closed-form", 0, 0, pricecache.Params{}, nil)
	_, _, _ = sharedCache.Do(r.Context(), key, func(ctx context.Context) ([]byte, bool, error) {
		_, err := finbench.PriceCtx(ctx, o, m, 0, nil)
		return nil, false, err
	})
}

// GridHandler reaches the deadline-blind grid entry point — the scenario
// engine's kernel. A scenario request is the serving tier's largest unit
// of work (cells x positions pricings), so a handler that cannot cancel
// a grid evaluation keeps the whole surface running after the client's
// deadline has passed.
func GridHandler(w http.ResponseWriter, r *http.Request) {
	b := finbench.NewBatch(4)
	rows := []finbench.GridRow{{Scale: 1}}
	_ = finbench.PriceBatchGrid(b, rows, func(row int, calls, puts []float64) error { // seeded violation
		return nil
	})
}

// GoodGridHandler evaluates the grid through the cancellable variant:
// the row loop checks the request context between rows. Clean.
func GoodGridHandler(w http.ResponseWriter, r *http.Request) {
	b := finbench.NewBatch(4)
	rows := []finbench.GridRow{{Scale: 1}}
	_ = finbench.PriceBatchGridCtx(r.Context(), b, rows, func(row int, calls, puts []float64) error {
		return nil
	})
}
