// Command finserve runs the concurrent batch-pricing server, the shard
// router that fronts a fleet of them, or the load generator.
//
//	finserve serve   -addr :8123 [-max-units N] [-fault-spec S] ...
//	finserve route   -addr :8200 [-backends u1,u2 | -replicas N] ...
//	finserve loadgen -url http://127.0.0.1:8123 [-requests N] [-mix ...] ...
//	finserve fault   -spec seed:rate:kinds [-n 4096]
//
// The serve subcommand drains cleanly on SIGTERM/SIGINT: the listener
// keeps answering with a fast 503 + Retry-After for -drain-linger (so a
// router fails requests over instead of seeing connection resets), then
// in-flight requests finish (bounded by -drain-timeout) and the process
// exits 0. -fault-spec wraps the listener in the deterministic fault
// injector for chaos runs.
//
// The route subcommand fronts N replicas with health checks, circuit
// breakers, retry/failover and optional hedging; -replicas spawns them
// as child processes of this binary and -restart-delay revives any that
// die (the chaos harness kills one mid-burst and watches the breaker
// reopen and recover).
//
// The loadgen subcommand drives a running server with a configurable
// method mix and asserts the protocol's guarantees from outside: -verify
// recomputes every 200 against the library and fails on any bit mismatch,
// -assert-codes restricts which status codes may appear, -min-count
// demands floors per code, -check-sched-frozen proves cancelled work
// stopped reaching the parallel pool, and the -assert-availability /
// -assert-max-retries / breaker assertions gate chaos runs. The e2e
// smoke and chaos gates are built from these flags.
//
// The fault subcommand prints a fault spec's canonical form, decision
// digest and per-kind counts — two invocations with the same spec must
// print identical output, which is how the chaos script proves the
// injector deterministic.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"finbench"
	"finbench/internal/fault"
	"finbench/internal/serve"
	"finbench/internal/serve/loadgen"
	"finbench/internal/serve/stream"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "serve":
		os.Exit(runServe(os.Args[2:]))
	case "route":
		os.Exit(runRoute(os.Args[2:]))
	case "loadgen":
		os.Exit(runLoadgen(os.Args[2:]))
	case "fault":
		os.Exit(runFault(os.Args[2:]))
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "finserve: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: finserve serve|route|loadgen|fault [flags]")
	fmt.Fprintln(os.Stderr, "run 'finserve <subcommand> -h' for flags")
}

// Connection-level timeouts shared by both tiers. A client that stalls
// mid-header is cut off after readHeaderTimeout instead of holding a
// goroutine and a connection forever; an idle keep-alive connection is
// closed after idleTimeout. There is deliberately no read or write
// timeout: request deadlines are the protocol's job, and /stream replies
// are long-lived.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the http.Server for either tier.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// runFault prints the deterministic decision digest of a fault spec.
func runFault(args []string) int {
	fs := flag.NewFlagSet("finserve fault", flag.ExitOnError)
	var (
		specStr = fs.String("spec", "", "fault spec seed:rate:kinds (required)")
		n       = fs.Int("n", 4096, "decisions to digest")
	)
	_ = fs.Parse(args)
	spec, err := fault.ParseSpec(*specStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fault: %v\n", err)
		return 2
	}
	counts := make(map[fault.Kind]uint64)
	for i := uint64(0); i < uint64(*n); i++ {
		counts[spec.Decide(i)]++
	}
	fmt.Printf("spec=%s n=%d digest=%016x\n", spec, *n, spec.Digest(*n))
	for _, k := range []fault.Kind{fault.KindNone, fault.KindRefuse, fault.KindReset, fault.KindTruncate, fault.KindLatency, fault.KindLimp} {
		if c, ok := counts[k]; ok {
			fmt.Printf("  %s=%d\n", k, c)
		}
	}
	return 0
}

func runServe(args []string) int {
	fs := flag.NewFlagSet("finserve serve", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8123", "listen address")
		mktRate      = fs.Float64("market-rate", 0.02, "risk-free rate")
		mktVol       = fs.Float64("market-vol", 0.3, "volatility")
		maxUnits     = fs.Int64("max-units", 0, "in-flight work-unit budget (0 = default)")
		admitWait    = fs.Duration("admit-wait", 0, "max admission wait before 503 (0 = default)")
		rate         = fs.Float64("rate", 0, "request-rate limit per second (0 = off)")
		burst        = fs.Float64("burst", 0, "rate-limiter burst")
		maxBatch     = fs.Int("coalesce-max-batch", 0, "flush threshold in options (0 = default)")
		profileEvery = fs.Int("profile-every", 0, "sample op mix every Nth flush (0 = default, <0 = off)")
		maxOptions   = fs.Int("max-options", 0, "max options per request (0 = default)")
		maxPaths     = fs.Int("max-paths", 0, "max Monte Carlo paths per request (0 = default)")
		maxDeadline  = fs.Duration("max-deadline", 0, "server-side deadline cap (0 = default)")
		degrade      = fs.Bool("degrade", false, "enable degrade mode under sustained shedding")
		cacheBytes   = fs.Int64("cache-bytes", 0, "content-addressed response cache byte budget (0 = off)")
		cacheTTL     = fs.Duration("cache-ttl", 0, "cache entry TTL (0 = never expire)")
		drainTO      = fs.Duration("drain-timeout", 5*time.Second, "max time to drain on SIGTERM")
		drainLinger  = fs.Duration("drain-linger", 300*time.Millisecond, "how long the listener keeps answering fast 503s before it stops accepting")
		faultSpec    = fs.String("fault-spec", "", "deterministic fault injection seed:rate:kinds (chaos runs)")

		streamOn       = fs.Bool("stream", false, "enable the GET /stream SSE Greeks feed")
		streamUniverse = fs.Int("stream-universe", 0, "streaming contract-universe size (0 = default)")
		streamUnder    = fs.Int("stream-underlyings", 0, "streaming underlying count (0 = default)")
		streamSeed     = fs.Uint64("stream-seed", 0, "streaming feed seed (0 = default)")
		streamInterval = fs.Duration("stream-interval", 0, "market tick interval (0 = default)")
		streamBudget   = fs.Duration("stream-budget", 0, "per-tick repricing budget (0 = tick interval)")
		streamSpotThr  = fs.Float64("stream-spot-threshold", 0, "relative spot move that dirties a contract (0 = default)")
		streamSubBuf   = fs.Int("stream-sub-buffer", 0, "per-subscriber event buffer (0 = default)")
		streamWriteTO  = fs.Duration("stream-write-timeout", 0, "per-frame write deadline before a stalled client is dropped (0 = default)")
	)
	_ = fs.Parse(args)

	var inj *fault.Injector
	if *faultSpec != "" {
		spec, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "finserve: %v\n", err)
			return 2
		}
		inj = fault.NewInjector(spec)
		fmt.Fprintf(os.Stderr, "finserve: fault injection %s (digest %016x over 4096)\n", spec, spec.Digest(4096))
	}

	cfg := serve.Config{
		Market:           finbench.Market{Rate: *mktRate, Volatility: *mktVol},
		MaxUnits:         *maxUnits,
		AdmitWait:        *admitWait,
		Rate:             *rate,
		Burst:            *burst,
		CoalesceMaxBatch: *maxBatch,
		ProfileEvery:     *profileEvery,
		MaxOptions:       *maxOptions,
		MaxPaths:         *maxPaths,
		MaxDeadline:      *maxDeadline,
		Degrade:          *degrade,
		CacheBytes:       *cacheBytes,
		CacheTTL:         *cacheTTL,
	}
	if *streamOn {
		cfg.Stream = &stream.Config{
			Universe:         *streamUniverse,
			Underlyings:      *streamUnder,
			Seed:             *streamSeed,
			Interval:         *streamInterval,
			Budget:           *streamBudget,
			SpotThreshold:    *streamSpotThr,
			SubscriberBuffer: *streamSubBuf,
		}
		cfg.StreamWriteTimeout = *streamWriteTO
	}
	s := serve.New(cfg)
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "finserve: %v\n", err)
		return 1
	}
	hs := newHTTPServer("", s.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(fault.NewListener(ln, inj)) }()
	fmt.Fprintf(os.Stderr, "finserve: listening on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "finserve: %v\n", err)
		return 1
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "finserve: %v, draining (linger %v, timeout %v)\n", got, *drainLinger, *drainTO)
	}

	// Ordered shutdown: first answer new requests with a fast 503 +
	// Retry-After while routers re-route (StartDrain), only then stop
	// accepting. Closing the listener immediately would race in-flight
	// connection setups into resets, which a router counts as a crash.
	start := time.Now()
	s.StartDrain()
	hs.SetKeepAlivesEnabled(false)
	time.Sleep(*drainLinger)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	drainErr := s.Drain(ctx)
	shutErr := hs.Shutdown(ctx)
	if drainErr != nil || (shutErr != nil && !errors.Is(shutErr, context.DeadlineExceeded)) {
		fmt.Fprintf(os.Stderr, "finserve: drain incomplete after %v (drain=%v shutdown=%v)\n",
			time.Since(start), drainErr, shutErr)
		return 1
	}
	fmt.Fprintf(os.Stderr, "finserve: drained in %v\n", time.Since(start))
	return 0
}

func runLoadgen(args []string) int {
	fs := flag.NewFlagSet("finserve loadgen", flag.ExitOnError)
	var (
		url          = fs.String("url", "http://127.0.0.1:8123", "server base URL")
		requests     = fs.Int("requests", 64, "total requests")
		concurrency  = fs.Int("concurrency", 4, "client workers")
		mixStr       = fs.String("mix", "closed-form=1", "method mix, e.g. closed-form=8,monte-carlo=1,greeks=2")
		optsPerReq   = fs.Int("options", 8, "options per request")
		deadlineMS   = fs.Int64("deadline-ms", 0, "deadline_ms sent with each request (0 = none)")
		mcPaths      = fs.Int("mc-paths", 0, "config.mc_paths override")
		binSteps     = fs.Int("binomial-steps", 0, "config.binomial_steps override")
		gridPoints   = fs.Int("grid-points", 0, "config.grid_points override")
		timeSteps    = fs.Int("time-steps", 0, "config.time_steps override")
		seed         = fs.Int64("seed", 1, "option-stream seed")
		timeout      = fs.Duration("timeout", 60*time.Second, "per-request HTTP timeout")
		verify       = fs.Bool("verify", false, "recompute every 200 against the library; fail on mismatch")
		wireFmt      = fs.String("wire", "json", "closed-form /price framing: json or columnar (binary frame; with -verify each columnar 200 is cross-checked bit-identical against a JSON replay)")
		assertCodes  = fs.String("assert-codes", "", "comma list of the only status codes allowed, e.g. 200,429,503")
		minCount     = fs.String("min-count", "", "minimum responses per code, e.g. 200:40,503:1")
		schedFrozen  = fs.Bool("check-sched-frozen", false, "after the run, require the pool scheduler counters to stop advancing")
		schedGap     = fs.Duration("sched-gap", 300*time.Millisecond, "observation gap for -check-sched-frozen")
		zipfS        = fs.Float64("zipf", -1, "Zipf contract-mix skew s (>= 0; 0 = uniform over the pool); requires a batch pool")
		zipfPool     = fs.Int("zipf-pool", 0, "pre-generated batch pool size for -zipf (0 = off)")
		minHitRate   = fs.Float64("assert-min-hit-rate", -1, "minimum observed cache hit rate over cache-considered requests (-1 = no check)")
		minCollapsed = fs.Int("assert-min-collapsed", 0, "require at least N responses served by singleflight collapse")
		availPct     = fs.Float64("assert-availability", -1, "minimum percent of requests answered 200 (chaos floor; transport errors count against it instead of failing the run)")
		maxRetries   = fs.Int("assert-max-retries", -1, "maximum routed retries across the run (-1 = no limit)")
		minBrkOpens  = fs.Uint64("assert-min-breaker-opens", 0, "require at least N breaker opens on the router's /statsz")
		brkClosed    = fs.Bool("assert-breakers-closed", false, "require every router breaker closed after the run")
		scenarioMode = fs.Bool("scenario", false, "drive POST /scenario instead of the /price mix; -options sets the portfolio size and with -verify every 200 must be byte-identical to the library's scenario engine")
		scenGrid     = fs.String("scenario-grid", "5x3x3", "scenario shock grid as SPOTxVOLxRATE counts")
		scenGens     = fs.Int("scenario-gens", 0, "scenarios per generator (adds one heston, jump and basket generator each; 0 = grid only)")
		minScattered = fs.Int("assert-min-scattered", 0, "require at least N scenario 200s split across replicas by the router")

		streamMode    = fs.Bool("stream", false, "drive GET /stream SSE subscribers instead of the request mix; with -verify every pushed entry is recomputed cold from its echoed inputs and must bit-match")
		streamClients = fs.Int("stream-clients", 4, "concurrent SSE subscribers")
		streamSlow    = fs.Int("stream-slow", 0, "additional deliberately slow subscribers; each must observe a resync snapshot")
		streamPause   = fs.Duration("stream-slow-pause", 0, "slow subscriber's one-time stall (0 = default; keep under the server write timeout)")
		streamFor     = fs.Duration("stream-duration", 3*time.Second, "how long each subscriber listens")
		streamUni     = fs.Int("stream-universe", 0, "server's streaming universe size, for subscription ranges (0 = default)")
		streamSub     = fs.Int("stream-sub", 0, "contracts per subscription (0 = universe/4)")
		maxStaleMS    = fs.Float64("assert-max-staleness-ms", -1, "maximum p99 tick-to-receive staleness in ms (-1 = no check; same-host clocks assumed)")
		minEvents     = fs.Uint64("assert-min-events", 0, "require at least N snapshot+greeks events across all subscribers")
	)
	_ = fs.Parse(args)

	if *streamMode {
		return runStreamLoadgen(streamLoadgenOpts{
			url: *url, clients: *streamClients, slow: *streamSlow,
			pause: *streamPause, duration: *streamFor,
			universe: *streamUni, sub: *streamSub,
			seed: *seed, verify: *verify,
			maxStaleMS: *maxStaleMS, minEvents: *minEvents,
		})
	}

	mix, err := loadgen.ParseMix(*mixStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}
	allow, err := loadgen.ParseCodes(*assertCodes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}
	mins, err := loadgen.ParseCounts(*minCount)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}

	if *zipfS >= 0 && *zipfPool <= 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -zipf requires -zipf-pool > 0")
		return 2
	}
	zs := *zipfS
	if zs < 0 {
		zs = 0
	}
	grid, err := loadgen.ParseScenarioGrid(*scenGrid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}
	rep, err := loadgen.Run(loadgen.Options{
		BaseURL:           *url,
		Concurrency:       *concurrency,
		Requests:          *requests,
		Mix:               mix,
		OptionsPerRequest: *optsPerReq,
		DeadlineMS:        *deadlineMS,
		Config: serve.WireConfig{
			MCPaths:       *mcPaths,
			BinomialSteps: *binSteps,
			GridPoints:    *gridPoints,
			TimeSteps:     *timeSteps,
		},
		Verify:   *verify,
		Wire:     *wireFmt,
		Seed:     *seed,
		Timeout:  *timeout,
		ZipfPool: *zipfPool,
		ZipfS:    zs,

		Scenario:     *scenarioMode,
		ScenarioGrid: grid,
		ScenarioGens: *scenGens,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	fmt.Println(rep)

	failed := false
	fail := func(format string, a ...any) {
		failed = true
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: "+format+"\n", a...)
	}
	if len(rep.Errors) > 0 && *availPct < 0 {
		// Under a chaos availability floor, transport errors are the
		// expected casualties and are judged by the floor instead.
		fail("transport errors: %v", rep.Errors)
	}
	if *verify && rep.Mismatch > 0 {
		fail("%d results did not bit-match the library", rep.Mismatch)
	}
	if *verify && rep.Verified == 0 && rep.Count(200) > 0 {
		fail("verification requested but nothing was verified")
	}
	if *wireFmt == "columnar" && rep.Columnar == 0 && rep.Count(200) > 0 {
		fail("-wire columnar requested but no 200 arrived over the columnar framing")
	}
	if *minScattered > 0 {
		if rep.Scattered < *minScattered {
			fail("router scattered %d scenario responses, want >= %d", rep.Scattered, *minScattered)
		} else {
			fmt.Printf("router scattered %d scenario responses (floor %d)\n", rep.Scattered, *minScattered)
		}
	}
	if len(allow) > 0 {
		for code, n := range rep.Codes {
			if n > 0 && !allow[code] {
				fail("status %d seen %d times but not in -assert-codes", code, n)
			}
		}
	}
	for code, want := range mins {
		if got := rep.Count(code); got < want {
			fail("status %d: got %d, want >= %d", code, got, want)
		}
	}
	if *availPct >= 0 {
		if got := rep.Availability() * 100; got < *availPct {
			fail("availability %.2f%% below the %.2f%% floor", got, *availPct)
		} else {
			fmt.Printf("availability %.2f%% (floor %.2f%%)\n", got, *availPct)
		}
	}
	if *maxRetries >= 0 && rep.Retries > *maxRetries {
		fail("%d retries exceed -assert-max-retries %d", rep.Retries, *maxRetries)
	}
	if *minHitRate >= 0 {
		if got := rep.HitRate(); got < *minHitRate {
			fail("cache hit rate %.3f below the %.3f floor", got, *minHitRate)
		} else {
			fmt.Printf("cache hit rate %.3f (floor %.3f)\n", got, *minHitRate)
		}
	}
	if *minCollapsed > 0 {
		if rep.CacheCollapsed < *minCollapsed {
			fail("singleflight collapsed %d responses, want >= %d", rep.CacheCollapsed, *minCollapsed)
		} else {
			fmt.Printf("singleflight collapsed %d responses (floor %d)\n", rep.CacheCollapsed, *minCollapsed)
		}
	}
	if *minBrkOpens > 0 || *brkClosed {
		opens, notClosed, err := loadgen.RouterBreakers(*url)
		if err != nil {
			fail("breaker assertion: %v", err)
		} else {
			if opens < *minBrkOpens {
				fail("breaker opens %d below required %d", opens, *minBrkOpens)
			}
			if *brkClosed && notClosed > 0 {
				fail("%d breakers not closed after the run", notClosed)
			}
			if opens >= *minBrkOpens && (!*brkClosed || notClosed == 0) {
				fmt.Printf("breakers: opens=%d not_closed=%d\n", opens, notClosed)
			}
		}
	}
	if *schedFrozen {
		frozen, moved, err := loadgen.SchedFrozen(*url, *schedGap)
		if err != nil {
			fail("sched-frozen check: %v", err)
		} else if !frozen {
			fail("scheduler counters still advancing after cancellation: %s", moved)
		} else {
			fmt.Println("sched counters frozen: cancelled work is not reaching the pool")
		}
	}
	if failed {
		return 1
	}
	fmt.Println("loadgen: PASS")
	return 0
}

// streamLoadgenOpts carries the -stream flag set into runStreamLoadgen.
type streamLoadgenOpts struct {
	url        string
	clients    int
	slow       int
	pause      time.Duration
	duration   time.Duration
	universe   int
	sub        int
	seed       int64
	verify     bool
	maxStaleMS float64
	minEvents  uint64
}

// runStreamLoadgen drives the SSE streaming mode and applies its
// assertions: bit-exact verification, staleness ceiling, event floor, and
// the slow-subscriber resync contract.
func runStreamLoadgen(o streamLoadgenOpts) int {
	rep, err := loadgen.StreamRun(loadgen.StreamOptions{
		BaseURL:     o.url,
		Clients:     o.clients,
		Duration:    o.duration,
		Universe:    o.universe,
		SubSize:     o.sub,
		Seed:        o.seed,
		Verify:      o.verify,
		SlowClients: o.slow,
		SlowPause:   o.pause,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	fmt.Println(rep)

	failed := false
	fail := func(format string, a ...any) {
		failed = true
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: "+format+"\n", a...)
	}
	if len(rep.Errors) > 0 {
		fail("stream errors: %v", rep.Errors)
	}
	if o.verify && rep.Mismatch > 0 {
		fail("%d streamed entries did not bit-match a cold repricing", rep.Mismatch)
	}
	if o.verify && rep.Verified == 0 && rep.Events() > 0 {
		fail("verification requested but nothing was verified")
	}
	if o.minEvents > 0 && rep.Events() < o.minEvents {
		fail("received %d events, want >= %d", rep.Events(), o.minEvents)
	}
	if o.maxStaleMS >= 0 {
		if rep.StalenessP99MS > o.maxStaleMS {
			fail("staleness p99 %.1fms above the %.1fms ceiling", rep.StalenessP99MS, o.maxStaleMS)
		} else {
			fmt.Printf("staleness p99 %.1fms (ceiling %.1fms)\n", rep.StalenessP99MS, o.maxStaleMS)
		}
	}
	if o.slow > 0 && rep.SlowResynced < o.slow {
		fail("%d of %d slow subscribers observed a resync snapshot", rep.SlowResynced, o.slow)
	}
	if failed {
		return 1
	}
	fmt.Println("loadgen: PASS")
	return 0
}
