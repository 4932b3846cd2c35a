package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"finbench/internal/resilience"
	"finbench/internal/serve"
	"finbench/internal/serve/shard"
	"finbench/internal/serve/stream"
)

// TestMain keeps a replica child from running the tests again: were a
// route case below wrongly accepted, the supervisor would spawn this test
// binary as `serve -addr ...`, and that child must exit at once.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(3)
	}
	os.Exit(m.Run())
}

// TestFlagSurface pins every subcommand's flags, read from its -h
// listing (which must exit 0). Each is a deployment setting something
// sets (the benchmark, scripts/smoke.sh, a documented recipe); every
// other setting is a package default, so adding a flag is a deliberate
// change to this list.
func TestFlagSurface(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func([]string) int
		want []string
	}{
		{"serve", runServe, []string{"addr", "fault-spec", "market-rate", "market-vol", "stream", "stream-interval", "stream-spot-threshold"}},
		{"route", runRoute, []string{"addr", "backends", "cache-bytes", "cache-tier", "health-interval", "port-base", "replicas", "restart-delay"}},
		{"fault", runFault, []string{"n", "spec"}},
	} {
		code, out := runCaptured(t, c.run, []string{"-h"})
		var got []string
		for _, line := range strings.Split(out, "\n") {
			if name, ok := strings.CutPrefix(line, "  -"); ok {
				got = append(got, strings.Fields(name)[0])
			}
		}
		if code != 0 || !slices.Equal(got, c.want) {
			t.Errorf("%s -h: exit %d, flags %v; want exit 0, flags %v", c.name, code, got, c.want)
		}
	}
}

// TestConfigSurface pins the settable values of the serving Config types
// by reflection, as TestFlagSurface pins the flags: each is set by
// finserve, the benchmark or the benchreg servepath rows, or is a fake
// (transport, clock) that tests substitute. Every other setting is a
// package constant, so a new knob is a deliberate change to this list.
// A struct-valued field counts by its leaves (Market is a rate and a
// volatility); any other field is one value. serve, stream and shard
// together hold 18.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[serve.Config](), []string{"Market.Rate", "Market.Volatility", "Stream"}},
		{reflect.TypeFor[stream.Config](), []string{"Universe", "Underlyings", "Seed", "Market.Rate", "Market.Volatility",
			"Interval", "Budget", "SpotThreshold", "VolThreshold", "RateThreshold"}},
		{reflect.TypeFor[shard.Config](), []string{"Backends", "HealthInterval", "Breaker.Now", "Transport", "CacheBytes"}},
		{reflect.TypeFor[resilience.Backoff](), []string{"Seed"}},
		{reflect.TypeFor[resilience.BreakerConfig](), []string{"Now"}},
	} {
		if got := settable(c.typ, ""); !slices.Equal(got, c.want) {
			t.Errorf("%v: settable values %v, want %v", c.typ, got, c.want)
		}
	}
}

// settable lists typ's exported fields, descending into struct-valued
// ones, each name prefixed by prefix.
func settable(typ reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, settable(f.Type, prefix+f.Name+".")...)
		} else {
			out = append(out, prefix+f.Name)
		}
	}
	return out
}

// runCaptured runs a subcommand with os.Stderr redirected to a file and
// returns its exit code and what it printed. A run that has not returned
// after 5s has got past the command-line checks — it is serving — and
// fails the test.
func runCaptured(t *testing.T, run func([]string) int, args []string) (int, string) {
	t.Helper()
	f, err := os.Create(t.TempDir() + "/stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	done := make(chan int, 1)
	go func() { done <- run(args) }()
	select {
	case code := <-done:
		out, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return code, string(out)
	case <-time.After(5 * time.Second):
		t.Fatalf("%q did not return: it accepted the command line", args)
		return 0, ""
	}
}

// TestInvalidCommandLines: a removed flag, a positional argument and a
// setting the process cannot honour all exit 2 with a message naming what
// is wrong, before a listener opens or a replica starts.
func TestInvalidCommandLines(t *testing.T) {
	type tc struct {
		run   func([]string) int
		args  []string
		names string // the message must contain this
	}
	var cases []tc
	for _, name := range []string{"max-units", "admit-wait", "coalesce-max-batch", "max-options", "max-paths",
		"max-deadline", "drain-timeout", "drain-linger", "stream-universe", "stream-underlyings", "stream-seed",
		"stream-budget", "stream-sub-buffer", "stream-write-timeout"} {
		cases = append(cases, tc{runServe, []string{"-addr", "127.0.0.1:0", "-" + name, "1"}, "-" + name})
	}
	for _, name := range []string{"replica-flags", "health-timeout", "max-attempts", "budget-ratio", "budget-cap",
		"breaker-failures", "breaker-open-for", "cache-ttl"} {
		cases = append(cases, tc{runRoute, []string{"-addr", "127.0.0.1:0", "-backends", "http://127.0.0.1:1", "-" + name, "1"}, "-" + name})
	}
	cases = append(cases,
		tc{runServe, []string{"addr"}, `"addr"`},
		tc{runServe, []string{"-addr", "127.0.0.1:0", "-stream", "extra"}, `"extra"`},
		tc{runServe, []string{"-addr", "127.0.0.1:0", "-fault-spec", "bogus"}, "-fault-spec"},
		tc{runServe, []string{"-addr", "127.0.0.1:0", "-market-vol", "0", "-market-rate", "0.05"}, "-market-vol"},
		tc{runServe, []string{"-addr", "127.0.0.1:0", "-market-vol", "-0.2"}, "-market-vol"},
		tc{runServe, []string{"-addr", "127.0.0.1:0", "-market-vol", "NaN"}, "-market-vol"},
		tc{runServe, []string{"-addr", "127.0.0.1:0", "-market-vol", "+Inf"}, "-market-vol"},
		tc{runServe, []string{"-addr", "127.0.0.1:0", "-market-rate", "NaN"}, "-market-rate"},
		tc{runServe, []string{"-addr", "127.0.0.1:0", "-market-rate", "-Inf"}, "-market-rate"},
		tc{runRoute, []string{"-addr", "127.0.0.1:0", "-backends", "http://127.0.0.1:1", "extra"}, `"extra"`},
		tc{runRoute, []string{"-addr", "127.0.0.1:0", "-backends", "http://127.0.0.1:1", "-cache-tier", "router", "-cache-bytes", "0"}, "-cache-bytes"},
		tc{runRoute, []string{"-addr", "127.0.0.1:0", "-backends", "http://127.0.0.1:1", "-cache-tier", "router", "-cache-bytes", "-1"}, "-cache-bytes"},
		tc{runRoute, []string{"-addr", "127.0.0.1:0", "-backends", "http://127.0.0.1:1", "-cache-tier", "replica"}, "-cache-tier"},
		tc{runRoute, []string{"-addr", "127.0.0.1:0", "-replicas", "2", "-port-base", "0"}, "-port-base"},
		tc{runRoute, []string{"-addr", "127.0.0.1:0", "-replicas", "2", "-port-base", "65535"}, "-port-base"},
		tc{runFault, []string{"-spec", "1:0.1:reset", "extra"}, `"extra"`},
		tc{runFault, []string{"-spec", "1:0.1:reset", "-n", "-1"}, "-n"},
	)
	for _, c := range cases {
		code, out := runCaptured(t, c.run, c.args)
		if code != 2 || !strings.Contains(out, c.names) {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 naming %s", c.args, code, out, c.names)
		}
	}
}

// A client that writes half a request line and stalls must have its
// connection closed once readHeaderTimeout passes.
func TestStalledHeaderIsCut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", http.NotFoundHandler())
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	// The test's own backstop: fail rather than hang if the server never
	// closes.
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v (header timeout %v)", elapsed, readHeaderTimeout)
	}
	if elapsed < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout %v", elapsed, readHeaderTimeout)
	}
}

// TestDependencySet pins the module packages finserve links. The paper
// reproduction's tools (cmd/finbench, internal/bench, cmd/benchreg) must
// stay out of the server binary, so a new edge into one of them, or into
// any other package, is a deliberate change to this list. The list holds
// for every target finserve is built for: the host, CI's GOARCH=386
// tier-1 leg and the arm64 binary the fusion guard cross-compiles.
func TestDependencySet(t *testing.T) {
	want := []string{
		"finbench",
		"finbench/cmd/finserve",
		"finbench/internal/binomial",
		"finbench/internal/blackscholes",
		"finbench/internal/brownian",
		"finbench/internal/cranknicolson",
		"finbench/internal/fault",
		"finbench/internal/layout",
		"finbench/internal/mathx",
		"finbench/internal/montecarlo",
		"finbench/internal/parallel",
		"finbench/internal/perf",
		"finbench/internal/resilience",
		"finbench/internal/rng",
		"finbench/internal/scenario",
		"finbench/internal/serve",
		"finbench/internal/serve/coalesce",
		"finbench/internal/serve/deadline",
		"finbench/internal/serve/pricecache",
		"finbench/internal/serve/shard",
		"finbench/internal/serve/stream",
		"finbench/internal/serve/stream/ticker",
		"finbench/internal/serve/wire",
		"finbench/internal/vec",
		"finbench/internal/workload",
	}
	for _, tc := range []struct {
		name string
		env  []string
	}{
		{"host", nil},
		{"386", []string{"CGO_ENABLED=0", "GOARCH=386"}},
		{"arm64", []string{"CGO_ENABLED=0", "GOOS=linux", "GOARCH=arm64"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// go test puts its own toolchain first on the test's PATH.
			cmd := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}{{.ImportPath}}{{end}}", ".")
			cmd.Env = append(os.Environ(), tc.env...)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("go list -deps: %v", err)
			}
			got := strings.Fields(string(out))
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("finserve links\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}
