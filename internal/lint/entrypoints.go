package lint

// This file is the suite's single registry of module entry points: the
// packages whose closures run concurrently (rngshare), the kernel entry
// points the serving tier may call (ctxprop), and the context-propagating
// variants that replace them on the request path. Keeping the tables in
// one place means a new kernel entry point is added once and every pass
// that reasons about the serving tier picks it up together.

// parallelPkgPath is the module's OpenMP-style loop package; the closures
// it receives run on multiple goroutines at once. resiliencePkgPath is
// the serving tier's retry machinery: a retried op re-executes, so a
// captured stream silently diverges between attempts (and races with
// whatever else holds it).
const (
	parallelPkgPath   = "finbench/internal/parallel"
	resiliencePkgPath = "finbench/internal/resilience"
)

// pricecachePkgPath is the content-addressed response cache. Its
// singleflight Do re-executes the compute closure when a failed leader's
// waiters re-dispatch, and concurrent leaders for different keys run
// their computes on concurrent goroutines — so a captured stream both
// races and silently diverges between executions, and the divergent
// bytes would be cached and fanned out to every waiter.
const pricecachePkgPath = "finbench/internal/serve/pricecache"

// rootPkgPath is the module's public API package, whose exported pricing
// functions are the kernel entry points the serving tier calls.
const rootPkgPath = "finbench"

// scenarioPkgPath is the portfolio risk scenario engine. Scatter runs
// its partition closure on one goroutine per partition concurrently, so
// a captured RNG stream races across partitions and breaks the
// byte-identity contract the scatter-gather merge depends on.
const scenarioPkgPath = "finbench/internal/scenario"

// streamPkgPath is the streaming Greeks hub and tickerPkgPath its
// simulated market source. The hub's RepriceFunc runs on the repricing-
// loop goroutine concurrently with whatever goroutine constructed the
// hub, and ticker.Run's per-tick callback runs on the ticker goroutine
// concurrently with its launcher — a captured stream in either races
// and breaks the feed's bit-reproducibility contract (every pushed
// value must match a cold repricing at the echoed market state).
const (
	streamPkgPath = "finbench/internal/serve/stream"
	tickerPkgPath = "finbench/internal/serve/stream/ticker"
)

// concurrentClosureFuncs maps package path to the entry points whose
// closure argument executes concurrently (or re-executes, for Retry).
var concurrentClosureFuncs = map[string]map[string]bool{
	parallelPkgPath: {
		// Every loop entry point of the package; Region is the counted,
		// cancellable form the kernels (and so the serving path) call.
		"For":           true,
		"ReduceFloat64": true,
		"Region":        true,
	},
	resiliencePkgPath: {
		// Retry re-executes the op, and its closure shares state with the
		// caller's health/stat goroutines.
		"Retry": true,
	},
	pricecachePkgPath: {
		// The singleflight compute closure: re-executed on waiter
		// re-dispatch, run concurrently across keys, result cached.
		"Do": true,
	},
	scenarioPkgPath: {
		// One goroutine per partition; the closure must derive any stream
		// from the partition's cell range, never capture one.
		"Scatter": true,
	},
	streamPkgPath: {
		// New's RepriceFunc executes on the hub's repricing-loop goroutine,
		// concurrently with the constructor's goroutine and every tick.
		"New": true,
	},
	tickerPkgPath: {
		// Run's callback fires on the ticker goroutine once per interval,
		// concurrently with whatever launched Run.
		"Run": true,
	},
}

// closureHints is the per-package fix suggestion appended to the
// diagnostic.
var closureHints = map[string]string{
	parallelPkgPath:   "derive a per-chunk stream inside the closure (e.g. rng.NewStream(lo, seed), keyed on the chunk start the closure receives)",
	resiliencePkgPath: "derive a per-attempt stream inside the closure (a retried attempt must not continue a prior attempt's sequence)",
	pricecachePkgPath: "derive the stream inside the compute closure from the cache key's seed (a re-dispatched compute must reproduce the leader's bytes, or the cache fans out divergent responses)",
	scenarioPkgPath:   "derive a per-partition stream inside the closure from the partition's cells (e.g. rng.NewStream(0, rng.DeriveSeed(seed, cellIndex))); partitions evaluate concurrently and must merge to deterministic bytes",
	streamPkgPath:     "derive the stream inside the RepriceFunc (it runs on the hub's repricing-loop goroutine; the feed's values must stay bit-reproducible against a cold repricing)",
	tickerPkgPath:     "derive any stream inside the tick callback (it runs on the ticker goroutine; the market walk itself is already seed-deterministic via the Source)",
}

// kernelEntryCtx maps the full name of each plain (deadline-blind) kernel
// entry point to the *Ctx variant a request-path caller must use instead;
// an empty replacement means no cancellable variant exists and the entry
// point simply must not be reachable from a handler. The key format is
// types.Func.FullName ("pkg/path.Fn" or "(*pkg/path.T).Method").
// ProfileBatch re-prices a batch with counters on for the machine model;
// a handler prices each request once and never profiles it.
var kernelEntryCtx = map[string]string{
	rootPkgPath + ".PriceBatch":                     rootPkgPath + ".PriceBatchCtx",
	rootPkgPath + ".PriceBatchGrid":                 rootPkgPath + ".PriceBatchGridCtx",
	rootPkgPath + ".ProfileBatch":                   "",
	"(*" + rootPkgPath + ".PathSimulator).Simulate": "",
}

// breakerType is the circuit breaker whose Allow/Success/Failure calls
// leakcheck requires to be bracketed within one function.
const breakerType = "(*" + resiliencePkgPath + ".Breaker)"

// coalescePkgPath and wirePkgPath are the serving tier's pooled-object
// packages: the request coalescer's ticket/batch freelists and the wire
// codec's request/response/buffer freelists (pricecache's contract
// freelist is the third).
const (
	coalescePkgPath = "finbench/internal/serve/coalesce"
	wirePkgPath     = "finbench/internal/serve/wire"
)

// pooledGetPut maps each pooled acquire entry point to the release a
// caller must pair it with in the same function. A Get whose result is
// returned directly transfers ownership to the caller and is exempt
// (e.g. a decode helper handing the pooled request up to the handler).
// An unpaired Get silently falls back to garbage-collected allocation:
// the server stays correct but the zero-allocation serve path regresses
// one object per request, which is exactly what the freelists exist to
// prevent.
var pooledGetPut = map[string]string{
	coalescePkgPath + ".GetTicket":      coalescePkgPath + ".PutTicket",
	coalescePkgPath + ".GetBatch":       coalescePkgPath + ".PutBatch",
	wirePkgPath + ".GetBuffer":          wirePkgPath + ".PutBuffer",
	wirePkgPath + ".GetPriceResponse":   wirePkgPath + ".PutPriceResponse",
	wirePkgPath + ".GetGreeksResponse":  wirePkgPath + ".PutGreeksResponse",
	pricecachePkgPath + ".GetContracts": pricecachePkgPath + ".PutContracts",
}
