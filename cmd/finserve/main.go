// Command finserve runs the concurrent batch-pricing server, or the shard
// router that fronts a fleet of them.
//
//	finserve serve   -addr :8123 [-max-units N] [-fault-spec S] ...
//	finserve route   -addr :8200 [-backends u1,u2 | -replicas N] ...
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
// die. The pricing cache lives only here (-cache-tier router): a lone
// serve process does not cache.
//
// The fault subcommand prints a fault spec's canonical form, decision
// digest and per-kind counts — two invocations with the same spec must
// print identical output, which is how scripts/smoke.sh proves the
// injector deterministic.
//
// The protocol's end-to-end guarantees (bit-reproducible 200s, routed ≡
// lone, cache hit ≡ cold, stream event ≡ cold repricing, availability
// under faults and replica loss) are asserted by the in-process topology
// tests in internal/serve/shard; scripts/smoke.sh covers what needs real
// processes. Drive load with `go run ./benchmark`.
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
	fmt.Fprintln(os.Stderr, "usage: finserve serve|route|fault [flags]")
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
		maxBatch     = fs.Int("coalesce-max-batch", 0, "flush threshold in options (0 = default)")
		profileEvery = fs.Int("profile-every", 0, "sample op mix every Nth flush (0 = default, <0 = off)")
		maxOptions   = fs.Int("max-options", 0, "max options per request (0 = default)")
		maxPaths     = fs.Int("max-paths", 0, "max Monte Carlo paths per request (0 = default)")
		maxDeadline  = fs.Duration("max-deadline", 0, "server-side deadline cap (0 = default)")
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
		CoalesceMaxBatch: *maxBatch,
		ProfileEvery:     *profileEvery,
		MaxOptions:       *maxOptions,
		MaxPaths:         *maxPaths,
		MaxDeadline:      *maxDeadline,
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
