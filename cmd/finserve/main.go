// Command finserve runs the concurrent batch-pricing server, or the shard
// router that fronts a fleet of them.
//
//	finserve serve   -addr :8123 [-fault-spec S] [-stream] ...
//	finserve route   -addr :8200 [-backends u1,u2 | -replicas N] ...
//	finserve fault   -spec seed:rate:kinds [-n 4096]
//
// Its 17 flags are deployment settings; every other setting is a
// serve.Config, shard.Config or stream.Config default.
//
// The serve subcommand drains cleanly on SIGTERM/SIGINT: the listener
// keeps answering with a fast 503 + Retry-After for drainLinger (300ms,
// so a router fails requests over instead of seeing connection resets),
// then in-flight requests finish (bounded by drainTimeout, 5s) and the
// process exits 0. -fault-spec wraps the listener in the deterministic
// fault injector for chaos runs.
//
// The route subcommand fronts N replicas with health checks, circuit
// breakers and retry/failover; -replicas spawns them as child processes
// of this binary, each running `finserve serve -addr` with nothing else,
// and -restart-delay revives any that die. The pricing cache lives only
// here (-cache-tier router): a lone serve process does not cache.
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
	"math"
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
//
// A draining server answers fast 503s for drainLinger before it stops
// accepting, then gives in-flight requests up to drainTimeout to finish.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	drainLinger       = 300 * time.Millisecond
	drainTimeout      = 5 * time.Second
)

// newHTTPServer builds the http.Server for either tier.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// parseFlags parses a subcommand's flags; no subcommand takes a
// positional argument. Unless ok, the caller exits with code: 0 after
// -h, 2 on an invalid command line (the message is already printed).
func parseFlags(fs *flag.FlagSet, args []string) (code int, ok bool) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		return 2, false
	}
	return 0, true
}

// runFault prints the deterministic decision digest of a fault spec.
func runFault(args []string) int {
	fs := flag.NewFlagSet("finserve fault", flag.ContinueOnError)
	var (
		specStr = fs.String("spec", "", "fault spec seed:rate:kinds (required)")
		n       = fs.Int("n", 4096, "decisions to digest")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if *n < 0 {
		fmt.Fprintf(os.Stderr, "fault: -n %d is negative\n", *n)
		return 2
	}
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
	fs := flag.NewFlagSet("finserve serve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8123", "listen address")
		mktRate   = fs.Float64("market-rate", 0.02, "risk-free rate")
		mktVol    = fs.Float64("market-vol", 0.3, "volatility")
		faultSpec = fs.String("fault-spec", "", "deterministic fault injection seed:rate:kinds (chaos runs)")

		streamOn       = fs.Bool("stream", false, "enable the GET /stream SSE Greeks feed")
		streamInterval = fs.Duration("stream-interval", 0, "market tick interval (0 = default 20ms)")
		streamSpotThr  = fs.Float64("stream-spot-threshold", 0, "relative spot move that dirties a contract (0 = default 0.002, <0 = every tick)")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	// A market no kernel can price is refused rather than served; a zero
	// volatility would also make serve.Config fall back to its default
	// market, dropping -market-rate.
	if !(*mktVol > 0) || math.IsInf(*mktVol, 1) {
		fmt.Fprintf(os.Stderr, "finserve: -market-vol %v: want a finite volatility > 0\n", *mktVol)
		return 2
	}
	if math.IsNaN(*mktRate) || math.IsInf(*mktRate, 0) {
		fmt.Fprintf(os.Stderr, "finserve: -market-rate %v: want a finite rate\n", *mktRate)
		return 2
	}

	var inj *fault.Injector
	if *faultSpec != "" {
		spec, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "finserve: -fault-spec: %v\n", err)
			return 2
		}
		inj = fault.NewInjector(spec)
		fmt.Fprintf(os.Stderr, "finserve: fault injection %s (digest %016x over 4096)\n", spec, spec.Digest(4096))
	}

	cfg := serve.Config{Market: finbench.Market{Rate: *mktRate, Volatility: *mktVol}}
	if *streamOn {
		cfg.Stream = &stream.Config{Interval: *streamInterval, SpotThreshold: *streamSpotThr}
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
		fmt.Fprintf(os.Stderr, "finserve: %v, draining (linger %v, timeout %v)\n", got, drainLinger, drainTimeout)
	}

	// Ordered shutdown: first answer new requests with a fast 503 +
	// Retry-After while routers re-route (StartDrain), only then stop
	// accepting. Closing the listener immediately would race in-flight
	// connection setups into resets, which a router counts as a crash.
	start := time.Now()
	s.StartDrain()
	hs.SetKeepAlivesEnabled(false)
	time.Sleep(drainLinger)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
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
