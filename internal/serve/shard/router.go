// Package shard is the fault-tolerant replica router of the serving
// tier: it fronts N finserve backends, health-checks them through GET
// /healthz, scores them least-loaded (router-side in-flight plus the
// backend's reported work units and admission-queue depth), and guards
// each with a circuit breaker. Failed attempts fail over to a different
// replica with the dead one excluded for the rest of the request, and
// attempts run one after another: every request is priced by exactly one
// replica at a time.
//
// The PR 4 bit-reproducibility invariant survives routing: every 200
// the router forwards is byte-for-byte what one backend produced, and
// backends answer identically for identical effective configs, so a
// routed 200 is bit-identical to a single-process answer. The one
// method whose answers are decomposition-dependent — Monte Carlo — is
// never retried: it gets exactly one attempt, and any failure
// surfaces to the client rather than risking a second, differently
// seeded execution being presented as the first.
//
// A 200 whose body is not valid JSON (a truncating fault, a dying
// replica) is treated as a replica failure and failed over — the router
// never forwards a corrupt 200.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"finbench/internal/resilience"
	"finbench/internal/serve"
	"finbench/internal/serve/pricecache"
	"finbench/internal/serve/wire"
)

// maxProxyBody bounds request and response bodies the router will carry
// (matches the backend's own request-body cap).
const maxProxyBody = 64 << 20

// Config tunes a Router; zero values select the defaults.
type Config struct {
	// Backends are the replica base URLs (e.g. http://127.0.0.1:9101).
	Backends []string

	// HealthInterval is the health-check period (default 100ms);
	// HealthTimeout bounds one probe (default 250ms).
	HealthInterval time.Duration
	HealthTimeout  time.Duration

	// MaxAttempts bounds attempts per request, first try included
	// (default 3). Monte Carlo requests always get exactly one.
	MaxAttempts int

	// Backoff shapes the retry delays. Breaker tunes the per-replica
	// circuit breakers.
	Backoff resilience.Backoff
	Breaker resilience.BreakerConfig

	// BudgetRatio/BudgetCap configure the global retry budget (tokens
	// earned per request / token cap; defaults 0.2 and 50). A negative
	// ratio disables the budget.
	BudgetRatio float64
	BudgetCap   float64

	// Transport overrides the backend round-tripper (tests inject
	// faults here); nil means http.DefaultTransport.
	Transport http.RoundTripper

	// CacheBytes enables a router-level content-addressed response cache
	// with that byte budget (0 disables); CacheTTL expires entries (0 =
	// never). The router cannot resolve effective configs, so it keys
	// purely on request content — correct only because the fleet is
	// homogeneous (every replica shares the market and config defaults,
	// which `finserve route`'s supervisor guarantees by spawning
	// identical children). Only closed-form /price requests are cached,
	// and only a replica's 200 is stored.
	CacheBytes int64
	CacheTTL   time.Duration

	// StreamWriteTimeout bounds one SSE frame write to a /stream client;
	// a client that cannot absorb a frame within it is disconnected.
	// Default 2s.
	StreamWriteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 100 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 250 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.StreamWriteTimeout <= 0 {
		c.StreamWriteTimeout = 2 * time.Second
	}
	return c
}

// replica is one backend and its router-side view.
type replica struct {
	url     string
	breaker *resilience.Breaker

	healthy  atomic.Bool
	draining atomic.Bool
	// loadUnits is the backend-reported load signal: in-flight work
	// units plus a large penalty per queued request (a non-empty
	// admission queue means the replica is saturated).
	loadUnits atomic.Int64
	// inflight counts requests this router currently has outstanding on
	// the replica — the freshest load signal between health sweeps.
	inflight atomic.Int64
	served   atomic.Uint64
}

// routable reports whether the replica should receive new requests.
func (rep *replica) routable() bool {
	return rep.healthy.Load() && !rep.draining.Load() &&
		rep.breaker.State() != resilience.Open
}

// Router fronts a set of replicas. Build with New, then Start the
// health loop; Close stops it.
type Router struct {
	cfg      Config
	replicas []*replica
	client   *http.Client
	budget   *resilience.Budget
	cache    *pricecache.Cache // nil when caching is disabled
	start    time.Time

	requests     atomic.Uint64
	retries      atomic.Uint64
	failovers    atomic.Uint64
	noReplica    atomic.Uint64
	corrupt      atomic.Uint64
	healthSweeps atomic.Uint64

	// scenarioRequests counts /scenario requests; scenarioScattered the
	// subset split across replicas; scenarioPartitionsSent the sub-range
	// dispatches those splits produced.
	scenarioRequests       atomic.Uint64
	scenarioScattered      atomic.Uint64
	scenarioPartitionsSent atomic.Uint64

	// streamRequests counts /stream subscriptions; streamPartitions the
	// per-replica partition streams they opened; streamResubscribes the
	// failover re-subscriptions after an established upstream stream
	// ended; streamSlowDrops the clients disconnected for overflowing the
	// merged frame queue.
	streamRequests     atomic.Uint64
	streamPartitions   atomic.Uint64
	streamResubscribes atomic.Uint64
	streamSlowDrops    atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds a router over cfg.Backends. It does not start the health
// loop; replicas begin optimistically healthy so routing works before
// the first sweep.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("shard: no backends configured")
	}
	r := &Router{
		cfg:    cfg,
		client: &http.Client{Transport: cfg.Transport},
		start:  time.Now(),
		stop:   make(chan struct{}),
	}
	if cfg.BudgetRatio >= 0 {
		r.budget = resilience.NewBudget(cfg.BudgetRatio, cfg.BudgetCap)
	}
	if cfg.CacheBytes > 0 {
		r.cache = pricecache.New(cfg.CacheBytes, cfg.CacheTTL)
	}
	for _, u := range cfg.Backends {
		rep := &replica{url: u, breaker: resilience.NewBreaker(cfg.Breaker)}
		rep.healthy.Store(true)
		r.replicas = append(r.replicas, rep)
	}
	return r, nil
}

// Start runs one synchronous health sweep (so obviously-dead replicas
// are excluded from the first request) and launches the periodic loop.
func (r *Router) Start() {
	r.checkAll()
	r.wg.Add(1)
	go r.healthLoop()
}

// Close stops the health loop.
func (r *Router) Close() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// ServeHTTP implements http.Handler: /price and /greeks are routed to
// replicas; /scenario is scatter-gathered across them (see scenario.go);
// /stream is partitioned across them and re-multiplexed (see stream.go);
// /statsz and /healthz report the router's own state.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch req.URL.Path {
	case "/price", "/greeks":
		r.route(w, req)
	case "/scenario":
		r.routeScenario(w, req)
	case "/stream":
		r.routeStream(w, req)
	case "/statsz":
		r.handleStatsz(w, req)
	case "/healthz":
		r.handleHealthz(w, req)
	default:
		writeError(w, http.StatusNotFound, "no such endpoint")
	}
}

// reqState is the per-request routing state its sequential retry
// attempts share.
type reqState struct {
	excluded map[*replica]bool // failed this request; picked only as a last resort
	attempts int
}

// backendResult is one backend response, fully read.
type backendResult struct {
	status     int
	body       []byte
	contentTyp string
	retryAfter string
	rep        *replica
}

// httpFailure carries a retryable backend response (503 shed/drain,
// 429, 5xx, corrupt 200) through the retry machinery so the last one
// can still be passed through when every attempt fails the same way.
type httpFailure struct {
	res *backendResult
}

func (e *httpFailure) Error() string {
	return fmt.Sprintf("replica %s answered %d", e.res.rep.url, e.res.status)
}

var errNoReplica = errors.New("no routable replica")

// route proxies one pricing request with retry and failover; cacheable closed-form /price requests go through the
// router-level content cache first.
func (r *Router) route(w http.ResponseWriter, req *http.Request) {
	r.requests.Add(1)
	body, err := readBody(req.Body, req.ContentLength)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}

	// The backend switches framing on Content-Type; anything but the
	// columnar frame type forwards as JSON (the legacy behavior).
	ctype := "application/json"
	if req.Header.Get("Content-Type") == wire.ColumnarContentType {
		ctype = wire.ColumnarContentType
	}

	// Read the method and deadline (and, for /price, the cache key). A
	// body that does not decode is still forwarded (the backend owns
	// validation and answers 400). Columnar frames are closed-form by
	// construction and carry their deadline in the header.
	var monteCarlo, cacheable bool
	var deadlineMS int64
	var key pricecache.Key
	switch {
	case ctype == wire.ColumnarContentType:
		deadlineMS, _ = wire.SniffColumnarDeadline(body)
	case req.URL.Path == "/price":
		monteCarlo, deadlineMS, key, cacheable = sniffPrice(body, r.cache != nil)
	default:
		monteCarlo, deadlineMS = sniffJSON(body)
	}

	ctx := req.Context()
	if deadlineMS > 0 {
		// The deadline travels in the body and the backend enforces it;
		// mirroring it here bounds retries and backoff waits too. It is
		// established before any cache wait, so a waiter parked on a
		// slow singleflight leader still honors its own deadline. Unlike
		// the replicas this is not the pooled deadline.Ctx: ctx becomes
		// the outgoing request's context, and net/http keeps using it
		// after RoundTrip returns (the RoundTripper contract lets the
		// transport read the request from another goroutine until the
		// response body is closed, and a dial the request started
		// outlives it with the context's values), so a released-and-
		// reused Ctx could reach into an unrelated request's exchange.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
		defer cancel()
	}

	if r.cache != nil && req.URL.Path == "/price" && ctype != wire.ColumnarContentType {
		if cacheable {
			r.routeCached(ctx, w, req.Method, body, key)
			return
		}
		w.Header().Set(pricecache.Header, "bypass")
	}

	res, err := r.dispatch(ctx, req.Method, req.URL.Path, ctype, body, monteCarlo)
	if err != nil {
		r.writeRouteError(w, err, res)
		return
	}
	r.passThrough(w, res)
}

// routeResult is one full routed exchange: the response to forward plus
// the per-request routing state the response headers are built from.
type routeResult struct {
	final   *backendResult
	st      *reqState
	retries int // attempts after the first, including ones that found no replica
}

// dispatch runs the retry/failover machinery for one request and
// returns the response to forward. On error, result.final carries the
// last retryable backend response when there was one (so the caller can
// still pass it through).
func (r *Router) dispatch(ctx context.Context, method, path, ctype string, body []byte, monteCarlo bool) (*routeResult, error) {
	// Monte Carlo answers depend on the batch decomposition, so a
	// second execution is not "the same answer, again" — it gets
	// exactly one attempt.
	attempts := r.cfg.MaxAttempts
	if monteCarlo {
		attempts = 1
	}

	out := &routeResult{st: &reqState{excluded: make(map[*replica]bool)}}
	err := resilience.Retry(ctx, attempts, r.cfg.Backoff, r.budget, func(ctx context.Context, attempt int) error {
		if attempt > 0 {
			out.retries++
			r.retries.Add(1)
			if len(out.st.excluded) > 0 {
				r.failovers.Add(1)
			}
		}
		res, err := r.attemptOnce(ctx, method, path, ctype, body, out.st)
		if err != nil {
			var hf *httpFailure
			if errors.As(err, &hf) {
				out.final = hf.res
			}
			return err
		}
		out.final = res
		return nil
	})
	return out, err
}

// writeRouteError maps a dispatch failure onto the client response.
func (r *Router) writeRouteError(w http.ResponseWriter, err error, res *routeResult) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusRequestTimeout, "routing deadline exceeded")
	case errors.Is(err, errNoReplica):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no routable replica")
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
	default:
		var hf *httpFailure
		if errors.As(err, &hf) && res != nil && res.final != nil {
			r.passThrough(w, res)
			return
		}
		writeError(w, http.StatusBadGateway, "replica unreachable: "+err.Error())
	}
}

// errUncacheable marks a leader exchange whose response must not be
// shared: any non-200 (a corrupt 200 never gets here — attemptOnce
// refuses a body that is not JSON). The response belongs to the request
// that provoked it; waiters re-dispatch their own exchange.
var errUncacheable = errors.New("response not cacheable")

// routeCached serves a closed-form /price request through the router
// cache: hits and collapsed waiters are answered from stored replica
// bytes without touching a backend; a miss routes normally as the
// singleflight leader and stores its 200. The routed-200s-bit-identical
// invariant makes the stored bytes exactly what any replica would
// answer, so a hit is indistinguishable from a fresh route.
func (r *Router) routeCached(ctx context.Context, w http.ResponseWriter, method string, body []byte, key pricecache.Key) {
	var lead *routeResult
	respBody, outcome, err := r.cache.Do(ctx, key, func(ctx context.Context) ([]byte, bool, error) {
		res, err := r.dispatch(ctx, method, "/price", "application/json", body, false)
		lead = res
		if err != nil {
			return nil, false, err
		}
		if res.final.status != http.StatusOK {
			return res.final.body, false, errUncacheable
		}
		return res.final.body, true, nil
	})
	switch {
	case err == nil && outcome == pricecache.Miss:
		// Leader with a cacheable 200: forward with full routing headers.
		w.Header().Set(pricecache.Header, outcome.String())
		r.passThrough(w, lead)
	case err == nil:
		// Hit or collapsed: served from the cache; no replica involved,
		// so no routing headers.
		w.Header().Set(pricecache.Header, outcome.String())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(respBody)
	case errors.Is(err, errUncacheable):
		// This caller led and got a non-shareable answer: forward it as
		// the plain path would have.
		w.Header().Set(pricecache.Header, "miss")
		r.passThrough(w, lead)
	default:
		r.writeRouteError(w, err, lead)
	}
}

// readBody reads a request or response body with exactly the semantics
// of io.ReadAll(io.LimitReader(r, maxProxyBody)) — same bytes, same
// truncation at the limit, same error — but a declared length in
// (0, maxProxyBody] pre-sizes the slice, so a known-length body costs one
// allocation instead of ReadAll's doubling. The slice is allocated, never
// pooled: a request body is handed to the transport, and net/http's
// RoundTripper contract lets the transport keep reading it, from another
// goroutine, after RoundTrip returns — after the handler may have
// returned too.
func readBody(r io.Reader, contentLength int64) ([]byte, error) {
	lr := io.LimitReader(r, maxProxyBody)
	if contentLength <= 0 || contentLength > maxProxyBody {
		return io.ReadAll(lr)
	}
	// bytes.MinRead spare bytes give the read that reports EOF room, so a
	// body of exactly the declared length never grows the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, contentLength+bytes.MinRead))
	_, err := buf.ReadFrom(lr)
	return buf.Bytes(), err
}

// sniffPrice decodes a JSON /price body once, with the wire codec, and
// reads from that one decode everything routing needs: the Monte Carlo
// bit, the deadline, and — when keyed (the router cache is on) — the
// content key, with cacheable false for a body that bypasses the cache.
// The pooled request is released before it returns. Only a body the codec
// rejects (the backend will answer it 400) takes sniffJSON, so routing of
// such bodies is byte-for-byte the encoding/json behavior; accepted
// bodies agree with it by construction (same keys, reference semantics —
// FuzzRouteSniff pins both against the listing in oracle_test.go).
func sniffPrice(body []byte, keyed bool) (monteCarlo bool, deadlineMS int64, key pricecache.Key, cacheable bool) {
	req, _, err := serve.DecodeRequest(body)
	if err != nil {
		monteCarlo, deadlineMS = sniffJSON(body)
		return monteCarlo, deadlineMS, pricecache.Key{}, false
	}
	defer serve.PutRequest(req)
	if keyed {
		key, cacheable = routerCacheKey(req)
	}
	return req.Method == "monte-carlo", req.DeadlineMS, key, cacheable
}

// sniffJSON reads method and deadline_ms with encoding/json: the /greeks
// sniff, and the /price fallback for bodies the wire codec rejects.
func sniffJSON(body []byte) (monteCarlo bool, deadlineMS int64) {
	var sniff struct {
		Method     string `json:"method"`
		DeadlineMS int64  `json:"deadline_ms"`
	}
	_ = json.Unmarshal(body, &sniff)
	return sniff.Method == "monte-carlo", sniff.DeadlineMS
}

// routerCacheKey canonicalizes a decoded /price request into a content
// address, or reports it non-cacheable. The router keys on the request as
// sent (market and config resolution happen on the replicas; fleet
// homogeneity — see Config.CacheBytes — makes every replica's answer
// identical for identical requests). Only closed-form is cacheable: its
// results are composition-independent; Monte Carlo's depend on the batch
// decomposition.
func routerCacheKey(req *serve.PriceRequest) (pricecache.Key, bool) {
	if req.Method != "" && req.Method != "closed-form" {
		return pricecache.Key{}, false
	}
	contracts := pricecache.GetContracts(len(req.Options))
	for i := range req.Options {
		o := &req.Options[i]
		(*contracts)[i] = pricecache.Contract{
			Type: o.Type, Style: o.Style,
			Spot: o.Spot, Strike: o.Strike, Expiry: o.Expiry,
		}
	}
	key := pricecache.Digest("closed-form", 0, 0, pricecache.Params{
		BinomialSteps: req.Config.BinomialSteps,
		GridPoints:    req.Config.GridPoints,
		TimeSteps:     req.Config.TimeSteps,
		MCPaths:       req.Config.MCPaths,
		Seed:          req.Config.Seed,
	}, *contracts)
	pricecache.PutContracts(contracts)
	return key, true
}

// passThrough forwards a backend response verbatim, plus the routing
// headers a client's resilience metrics are built from: Attempts counts
// the replica attempts this request made, Retries the re-attempts after
// the first (Attempts − 1, unless a re-attempt found no routable
// replica to try).
func (r *Router) passThrough(w http.ResponseWriter, rr *routeResult) {
	res := rr.final
	h := w.Header()
	if res.contentTyp != "" {
		h.Set("Content-Type", res.contentTyp)
	}
	if res.retryAfter != "" {
		h.Set("Retry-After", res.retryAfter)
	}
	h.Set("X-Finserve-Replica", res.rep.url)
	h.Set("X-Finserve-Attempts", fmt.Sprintf("%d", rr.st.attempts))
	h.Set("X-Finserve-Retries", fmt.Sprintf("%d", rr.retries))
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// attemptOnce picks a replica, sends the request, and classifies the
// outcome: (res, nil) for responses that may be forwarded as-is (valid
// 200s and 4xx), *httpFailure for retryable statuses, a bare error for
// transport-level failures. It brackets the breaker: exactly one
// Success/Failure per admission.
func (r *Router) attemptOnce(ctx context.Context, method, path, ctype string, body []byte, st *reqState) (*backendResult, error) {
	rep := r.pick(st)
	if rep == nil {
		r.noReplica.Add(1)
		return nil, errNoReplica
	}
	st.attempts++
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)

	hreq, err := http.NewRequestWithContext(ctx, method, rep.url+path, bytes.NewReader(body))
	if err != nil {
		rep.breaker.Success() // request construction is not the replica's fault
		return nil, resilience.Permanent(err)
	}
	hreq.Header.Set("Content-Type", ctype)

	resp, err := r.client.Do(hreq)
	if err != nil {
		return nil, r.replicaFailed(ctx, st, rep, fmt.Errorf("replica %s: %w", rep.url, err))
	}
	respBody, err := readBody(resp.Body, resp.ContentLength)
	_ = resp.Body.Close() // the read error above is the signal that matters
	if err != nil {
		// Connection reset or truncated mid-body.
		return nil, r.replicaFailed(ctx, st, rep, fmt.Errorf("replica %s: reading response: %w", rep.url, err))
	}

	res := &backendResult{
		status:     resp.StatusCode,
		body:       respBody,
		contentTyp: resp.Header.Get("Content-Type"),
		retryAfter: resp.Header.Get("Retry-After"),
		rep:        rep,
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		valid := json.Valid(respBody)
		if res.contentTyp == wire.ColumnarContentType {
			valid = wire.ValidColumnarResponse(respBody)
		}
		if !valid {
			// A truncating fault can slip a short read past the HTTP
			// framing; never forward a corrupt 200.
			r.corrupt.Add(1)
			return nil, r.replicaFailed(ctx, st, rep, fmt.Errorf("replica %s: corrupt 200 body", rep.url))
		}
		rep.breaker.Success()
		rep.served.Add(1)
		return res, nil
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests:
		// The replica is alive and answering — shedding is load, not
		// brokenness, so the breaker records a success; but fail the
		// request over so another replica can take it.
		rep.breaker.Success()
		st.excluded[rep] = true
		return nil, &httpFailure{res: res}
	case resp.StatusCode >= 500:
		rep.breaker.Failure()
		st.excluded[rep] = true
		return nil, &httpFailure{res: res}
	default:
		// 4xx: the request itself is at fault; pass it through.
		rep.breaker.Success()
		return res, nil
	}
}

// replicaFailed records a transport-level failure against rep — unless
// the attempt was cancelled (an expired deadline or a departed client is
// not evidence the replica is broken) — and excludes it from the rest of
// this request.
func (r *Router) replicaFailed(ctx context.Context, st *reqState, rep *replica, err error) error {
	if ctx.Err() != nil {
		rep.breaker.Success()
		return err
	}
	rep.breaker.Failure()
	st.excluded[rep] = true
	return err
}

// pick chooses the least-loaded routable replica that the breaker
// admits. Two preference tiers: replicas this request has not failed on,
// then, as a last resort, one that already failed it — a lone replica
// with a transient 500 is still worth a backoff-spaced retry, but never
// ahead of a live alternative. Returns nil when nothing is admissible.
func (r *Router) pick(st *reqState) *replica {
	// A replica whose breaker refuses (half-open with its probe slots
	// taken, or tripped between routable() and Allow) is skipped for the
	// rest of this pick, and the same tier is scanned again for the
	// next-best replica.
	var refused []*replica
	for tier := 0; tier < 2; tier++ {
		for {
			var best *replica
			var bestScore int64
			for _, rep := range r.replicas {
				if !rep.routable() || slices.Contains(refused, rep) {
					continue
				}
				if tier == 0 && st.excluded[rep] {
					continue
				}
				score := rep.inflight.Load()*1_000_000 + rep.loadUnits.Load()
				if best == nil || score < bestScore {
					best, bestScore = rep, score
				}
			}
			if best == nil {
				break
			}
			// finlint:ignore leakcheck the Allow admitted here is settled by attemptOnce, which calls Success/Failure on every response path of the routed attempt
			if best.breaker.Allow() {
				return best
			}
			refused = append(refused, best)
		}
	}
	return nil
}

// writeJSON encodes v before it writes the status, so a value
// encoding/json refuses (a non-finite float in a merged scenario
// surface) answers 400, never a 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusBadRequest, wire.NonFiniteError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
