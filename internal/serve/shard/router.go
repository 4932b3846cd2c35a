// Package shard is the fault-tolerant replica router of the serving
// tier: it fronts N finserve backends, health-checks them through GET
// /healthz, scores them least-loaded (router-side in-flight plus the
// backend's reported work units and admission-queue depth), and guards
// each with a circuit breaker. Every routed request, /stream
// subscriptions included, reaches a replica through one exchange (send).
// Failed attempts fail over to a different replica with the dead one
// excluded for the rest of the request, and attempts run one after
// another: every request is priced by exactly one replica at a time.
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
	"math"
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

// The router's policy: healthTimeout bounds one health probe;
// maxAttempts bounds attempts per request, first try included (Monte
// Carlo requests always get exactly one). The backoff between attempts,
// the retry budget and the breaker thresholds are resilience's; the SSE
// frame write timeout is stream.WriteTimeout, the lone server's.
const (
	healthTimeout = 250 * time.Millisecond
	maxAttempts   = 3
)

// Config tunes a Router; zero values select the defaults.
type Config struct {
	// Backends are the replica base URLs (e.g. http://127.0.0.1:9101).
	Backends []string

	// HealthInterval is the health-check period (default 100ms).
	HealthInterval time.Duration

	// Breaker carries the per-replica circuit breakers' clock (tests
	// substitute a fake one).
	Breaker resilience.BreakerConfig

	// Transport overrides the backend round-tripper (tests inject
	// faults here); nil means http.DefaultTransport.
	Transport http.RoundTripper

	// CacheBytes enables a router-level content-addressed response cache
	// with that byte budget (0 disables). The router cannot resolve
	// effective configs, so it keys purely on request content — correct
	// only because the fleet is homogeneous (every replica shares the
	// market and config defaults, which `finserve route`'s supervisor
	// guarantees by spawning identical children). A fleet's market is
	// fixed when its processes start, so entries never expire. Only
	// closed-form /price requests are cached, and only a replica's 200 is
	// stored.
	CacheBytes int64
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 100 * time.Millisecond
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
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

	// streamRequests counts /stream subscriptions; streamResubscribes the
	// failover re-subscriptions after an upstream stream ended;
	// streamSlowDrops the clients disconnected for missing a frame write
	// deadline.
	streamRequests     atomic.Uint64
	streamResubscribes atomic.Uint64
	streamSlowDrops    atomic.Uint64

	// stopped is done once Close is called; stop is its cancel.
	stopped context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
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
		budget: resilience.NewBudget(),
		start:  time.Now(),
	}
	r.stopped, r.stop = context.WithCancel(context.Background())
	if cfg.CacheBytes > 0 {
		r.cache = pricecache.New(cfg.CacheBytes, 0)
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

// Close stops the health loop, ends every routed stream with a goodbye,
// and answers 503 to a subscription no replica has accepted yet. It is
// safe to call more than once. A routed stream ends only here, so an
// http.Server serving the router must run Close when its Shutdown starts
// (RegisterOnShutdown), not after: Shutdown waits for open streams.
func (r *Router) Close() {
	r.stop()
	r.wg.Wait()
}

// ServeHTTP implements http.Handler: /price and /greeks are routed to
// replicas; /scenario is scatter-gathered across them (see scenario.go);
// /stream is relayed from one replica at a time (see stream.go);
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

// exchange is one request as the router sends it to replicas: what every
// attempt re-sends unchanged.
type exchange struct {
	method, uri, ctype string
	body               []byte
	// monteCarlo limits the exchange to one attempt: a Monte Carlo answer
	// depends on the batch decomposition, so a second execution is not
	// "the same answer, again".
	monteCarlo bool
	// subscribe marks a /stream subscription, whose 200 returns with its
	// event stream open instead of read and checked.
	subscribe bool
}

// routeResult is one routed exchange: the response to forward, plus the
// per-request routing state its sequential attempts share and the
// response headers are built from.
type routeResult struct {
	final    *backendResult
	excluded map[*replica]bool // failed this request; picked only as a last resort
	attempts int
	retries  int // attempts after the first, including ones that found no replica
}

// backendResult is one backend response, read unless it is a /stream 200.
type backendResult struct {
	status     int
	body       []byte
	contentTyp string
	retryAfter string
	rep        *replica
	// stream is a /stream 200's open event stream (body is then empty).
	stream io.ReadCloser
}

// httpFailure carries a failed exchange whose final response is a
// retryable status (503 shed/drain, 429, 5xx) through the retry machinery,
// so the last one can still be passed through when every attempt fails
// the same way.
type httpFailure struct {
	rr *routeResult
}

func (e *httpFailure) Error() string {
	return fmt.Sprintf("replica %s answered %d", e.rr.final.rep.url, e.rr.final.status)
}

var errNoReplica = errors.New("no routable replica")

// front is where /price, /greeks and /scenario start: it numbers the
// request on the router's request counter and reads its body. On false a
// 400 is written.
func (r *Router) front(w http.ResponseWriter, req *http.Request) (seq uint64, body []byte, ok bool) {
	seq = r.requests.Add(1)
	body, err := readBody(req.Body, req.ContentLength)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return seq, nil, false
	}
	return seq, body, true
}

// withDeadline mirrors a request's deadline_ms (none when not positive,
// nor when it is past what a Duration holds) onto ctx. The deadline
// travels in the body and the backends enforce it; mirroring it here
// bounds retries and backoff waits too. It is
// established before any cache wait, so a waiter parked on a slow
// singleflight leader still honors its own deadline. Unlike the replicas
// this is not the pooled deadline.Ctx: ctx becomes the outgoing request's
// context, and net/http keeps using it after RoundTrip returns (the
// RoundTripper contract lets the transport read the request from another
// goroutine until the response body is closed, and a dial the request
// started outlives it with the context's values), so a released-and-
// reused Ctx could reach into an unrelated request's exchange.
func withDeadline(ctx context.Context, deadlineMS int64) (context.Context, context.CancelFunc) {
	// Compared in milliseconds before converting: a larger deadline_ms
	// would wrap negative as a product and expire at once.
	if deadlineMS <= 0 || deadlineMS > math.MaxInt64/int64(time.Millisecond) {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
}

// route proxies one pricing request with retry and failover; cacheable
// closed-form /price requests go through the router-level content cache
// first.
func (r *Router) route(w http.ResponseWriter, req *http.Request) {
	seq, body, ok := r.front(w, req)
	if !ok {
		return
	}
	// The backend switches framing on Content-Type; anything but the
	// columnar frame type forwards as JSON (the legacy behavior).
	ex := exchange{method: req.Method, uri: req.URL.Path, ctype: "application/json", body: body}
	if req.Header.Get("Content-Type") == wire.ColumnarContentType {
		ex.ctype = wire.ColumnarContentType
	}

	// Read the method and deadline (and, for /price, the cache key). A
	// body that does not decode is still forwarded (the backend owns
	// validation and answers 400). Columnar frames are closed-form by
	// construction and carry their deadline in the header.
	var cacheable bool
	var deadlineMS int64
	var key pricecache.Key
	switch {
	case ex.ctype == wire.ColumnarContentType:
		deadlineMS, _ = wire.SniffColumnarDeadline(body)
	case ex.uri == "/price":
		ex.monteCarlo, deadlineMS, key, cacheable = sniffPrice(body, r.cache != nil)
	default:
		ex.monteCarlo, deadlineMS = sniffJSON(body)
	}
	ctx, cancel := withDeadline(req.Context(), deadlineMS)
	defer cancel()

	if r.cache != nil && ex.uri == "/price" && ex.ctype != wire.ColumnarContentType {
		if cacheable {
			r.routeCached(ctx, w, jitterSeed(seq, 0), &ex, key)
			return
		}
		w.Header().Set(pricecache.Header, "bypass")
	}

	res, err := r.dispatch(ctx, jitterSeed(seq, 0), &ex)
	if err != nil {
		r.writeRouteError(w, err)
		return
	}
	r.passThrough(w, res)
}

// dispatch runs one exchange's attempts, with its backoff jitter seeded by
// seed (its jitterSeed), counting retries and failovers, and returns the
// exchange with the response to forward.
func (r *Router) dispatch(ctx context.Context, seed uint64, ex *exchange) (*routeResult, error) {
	attempts := maxAttempts
	if ex.monteCarlo {
		attempts = 1
	}
	rr := &routeResult{excluded: make(map[*replica]bool)}
	err := resilience.Retry(ctx, attempts, resilience.Backoff{Seed: seed}, r.budget, func(ctx context.Context, attempt int) error {
		if attempt > 0 {
			rr.retries++
			r.retries.Add(1)
			if len(rr.excluded) > 0 {
				r.failovers.Add(1)
			}
		}
		return r.send(ctx, rr, ex)
	})
	return rr, err
}

// jitterSeed is the retry-jitter seed of one exchange: request is its
// number on the router's request counter (a /stream subscription passes
// the complement of its number on the stream counter, so the two never
// meet) and part its scenario partition, counted from 1, or 0. Delay is a
// pure function of its seed and the attempt, so exchanges that shared a
// seed and retried against the same shedding replica would wait out the
// same delays and arrive again together; no two exchanges share one.
func jitterSeed(request uint64, part int) uint64 {
	return request<<16 | uint64(part)
}

// writeRouteError maps a dispatch failure onto the client response.
func (r *Router) writeRouteError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusRequestTimeout, "routing deadline exceeded")
	case errors.Is(err, errNoReplica):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no routable replica")
	case errors.Is(err, context.Canceled):
		if r.stopped.Err() == nil {
			return // the client went away; nothing useful to write
		}
		// The router's stop cut a /stream subscription off before a
		// replica accepted it: come back to another router.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "router is stopping")
	default:
		var hf *httpFailure
		if errors.As(err, &hf) {
			r.passThrough(w, hf.rr)
			return
		}
		writeError(w, http.StatusBadGateway, "replica unreachable: "+err.Error())
	}
}

// errUncacheable marks a leader exchange whose response must not be
// shared: any non-200 (a corrupt 200 never gets here — send refuses a
// body that is not JSON). The response belongs to the request
// that provoked it; waiters re-dispatch their own exchange.
var errUncacheable = errors.New("response not cacheable")

// routeCached serves a closed-form /price request through the router
// cache: hits and collapsed waiters are answered from stored replica
// bytes without touching a backend; a miss routes normally as the
// singleflight leader and stores its 200. The routed-200s-bit-identical
// invariant makes the stored bytes exactly what any replica would
// answer, so a hit is indistinguishable from a fresh route.
func (r *Router) routeCached(ctx context.Context, w http.ResponseWriter, seed uint64, ex *exchange, key pricecache.Key) {
	var lead *routeResult
	respBody, outcome, err := r.cache.Do(ctx, key, func(ctx context.Context) ([]byte, bool, error) {
		res, err := r.dispatch(ctx, seed, ex)
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
	case (err == nil && outcome == pricecache.Miss) || errors.Is(err, errUncacheable):
		// This caller led: forward its answer, a stored 200 or one that
		// is not shareable, with full routing headers, as the plain path
		// would have.
		w.Header().Set(pricecache.Header, "miss")
		r.passThrough(w, lead)
	case err == nil:
		// Hit or collapsed: served from the cache; no replica involved,
		// so no routing headers.
		w.Header().Set(pricecache.Header, outcome.String())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(respBody)
	default:
		r.writeRouteError(w, err)
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
	req, _, err := wire.DecodeRequest(body)
	if err != nil {
		monteCarlo, deadlineMS = sniffJSON(body)
		return monteCarlo, deadlineMS, pricecache.Key{}, false
	}
	defer wire.PutRequest(req)
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
	h.Set("X-Finserve-Attempts", fmt.Sprintf("%d", rr.attempts))
	h.Set("X-Finserve-Retries", fmt.Sprintf("%d", rr.retries))
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// send is the router's one replica exchange, under every routed path:
// /price, /greeks, the cache leader, each scenario partition, and a
// /stream subscription and its re-subscriptions. It picks a replica,
// sends ex, and classifies the answer: nil for one that may be forwarded
// as-is (a 200, a 4xx), *httpFailure for a retryable status, a bare error
// for a transport failure; the answer, when there is one, is rr.final. A
// pricing 200 is read and kept only if its body is whole; a
// subscription's 200 keeps its event stream open (the caller closes it).
// It brackets the breaker: exactly one Success/Failure per admission.
// The replica's in-flight count covers only the exchange: an open stream
// is not a request outstanding, and counting it would steer every routed
// /price away from the replica for the stream's whole life.
func (r *Router) send(ctx context.Context, rr *routeResult, ex *exchange) error {
	rep := r.pick(rr)
	if rep == nil {
		r.noReplica.Add(1)
		return errNoReplica
	}
	rr.attempts++
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)

	hreq, err := http.NewRequestWithContext(ctx, ex.method, rep.url+ex.uri, bytes.NewReader(ex.body))
	if err != nil {
		rep.breaker.Success() // request construction is not the replica's fault
		return resilience.Permanent(err)
	}
	if ex.ctype != "" {
		hreq.Header.Set("Content-Type", ex.ctype)
	}

	resp, err := r.client.Do(hreq)
	if err != nil {
		return r.replicaFailed(ctx, rr, rep, fmt.Errorf("replica %s: %w", rep.url, err))
	}
	res := &backendResult{
		status:     resp.StatusCode,
		contentTyp: resp.Header.Get("Content-Type"),
		retryAfter: resp.Header.Get("Retry-After"),
		rep:        rep,
	}
	if ex.subscribe && res.status == http.StatusOK {
		res.stream = resp.Body
	} else {
		res.body, err = readBody(resp.Body, resp.ContentLength)
		_ = resp.Body.Close() // the read error above is the signal that matters
		if err != nil {
			// Connection reset or truncated mid-body.
			return r.replicaFailed(ctx, rr, rep, fmt.Errorf("replica %s: reading response: %w", rep.url, err))
		}
		if res.status == http.StatusOK && !wholeBody(res) {
			// A truncating fault can slip a short read past the HTTP
			// framing; never forward a corrupt 200.
			r.corrupt.Add(1)
			return r.replicaFailed(ctx, rr, rep, fmt.Errorf("replica %s: corrupt 200 body", rep.url))
		}
	}
	rr.final = res
	if settleStatus(rr, rep, res.status) {
		return &httpFailure{rr: rr}
	}
	return nil
}

// wholeBody reports whether a 200's body is whole in its framing.
func wholeBody(res *backendResult) bool {
	if res.contentTyp == wire.ColumnarContentType {
		return wire.ValidColumnarResponse(res.body)
	}
	return json.Valid(res.body)
}

// settleStatus settles rep's breaker on an answer and reports whether the
// request fails over (rep is then excluded for the rest of it). A 200 or
// 4xx is a success, passed through to the client (a 200 also counts as
// served). A 503 or 429 is shedding — load, not brokenness — so the
// breaker records a success, but another replica takes the request; any
// other 5xx is a failure.
func settleStatus(rr *routeResult, rep *replica, status int) (failover bool) {
	switch {
	case status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests:
		rep.breaker.Success()
	case status >= 500:
		rep.breaker.Failure()
	default:
		if status == http.StatusOK {
			rep.served.Add(1)
		}
		rep.breaker.Success()
		return false
	}
	rr.excluded[rep] = true
	return true
}

// replicaFailed records a transport-level failure against rep — unless
// the attempt was cancelled (an expired deadline or a departed client is
// not evidence the replica is broken) — and excludes it from the rest of
// this request.
func (r *Router) replicaFailed(ctx context.Context, rr *routeResult, rep *replica, err error) error {
	if ctx.Err() != nil {
		rep.breaker.Success()
		return err
	}
	rep.breaker.Failure()
	rr.excluded[rep] = true
	return err
}

// pick chooses the least-loaded routable replica that the breaker
// admits. Two preference tiers: replicas this request has not failed on,
// then, as a last resort, one that already failed it — a lone replica
// with a transient 500 is still worth a backoff-spaced retry, but never
// ahead of a live alternative. Returns nil when nothing is admissible.
func (r *Router) pick(rr *routeResult) *replica {
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
				if tier == 0 && rr.excluded[rep] {
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
			// finlint:ignore leakcheck the Allow admitted here is settled by send, which calls Success/Failure on every response path of the routed attempt
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
