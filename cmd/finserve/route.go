package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"finbench/internal/serve/shard"
)

// runRoute fronts a fleet of replicas with the shard router. Backends
// come either from -backends (already-running URLs) or -replicas N
// (spawned as children of this binary, revived after -restart-delay if
// they die — the chaos harness kills one mid-burst by the pid logged
// here and watches the breaker open and recover). Every check of the
// command line runs before a child starts or a listener opens.
func runRoute(args []string) int {
	fs := flag.NewFlagSet("finserve route", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8200", "router listen address")
		backendsStr  = fs.String("backends", "", "comma-separated replica base URLs (mutually exclusive with -replicas)")
		replicas     = fs.Int("replicas", 0, "spawn N replica child processes of this binary")
		portBase     = fs.Int("port-base", 9100, "first replica port when spawning")
		restartDelay = fs.Duration("restart-delay", 0, "revive a dead spawned replica after this delay (0 = no revival)")
		healthEvery  = fs.Duration("health-interval", 0, "health-check period (0 = default 100ms)")
		cacheTier    = fs.String("cache-tier", "none", "pricing cache placement: none, or router (one cache in this process)")
		cacheBytes   = fs.Int64("cache-bytes", 64<<20, "router cache byte budget")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	var routerCacheBytes int64
	switch *cacheTier {
	case "none":
	case "router":
		if *cacheBytes <= 0 {
			fmt.Fprintf(os.Stderr, "route: -cache-tier router needs -cache-bytes > 0, got %d\n", *cacheBytes)
			return 2
		}
		routerCacheBytes = *cacheBytes
	default:
		fmt.Fprintf(os.Stderr, "route: unknown -cache-tier %q (none|router)\n", *cacheTier)
		return 2
	}

	var urls []string
	var sup *supervisor
	switch {
	case *backendsStr != "" && *replicas > 0:
		fmt.Fprintln(os.Stderr, "route: -backends and -replicas are mutually exclusive")
		return 2
	case *backendsStr != "":
		for _, u := range strings.Split(*backendsStr, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
	case *replicas > 0:
		if *portBase < 1 || *portBase > 65536-*replicas {
			fmt.Fprintf(os.Stderr, "route: -port-base %d with -replicas %d: replica ports must lie in 1-65535\n", *portBase, *replicas)
			return 2
		}
		sup = newSupervisor(*replicas, *portBase, *restartDelay)
		urls = sup.urls
		sup.startAll()
		defer sup.stopAll()
	default:
		fmt.Fprintln(os.Stderr, "route: need -backends or -replicas")
		return 2
	}

	router, err := shard.New(shard.Config{
		Backends:       urls,
		HealthInterval: *healthEvery,
		CacheBytes:     routerCacheBytes,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "route: %v\n", err)
		return 2
	}
	router.Start()
	defer router.Close()

	hs := newHTTPServer(*addr, router)
	// Shutdown waits for open connections, and a routed /stream ends only
	// when the router stops: stop it first, so every stream says goodbye.
	hs.RegisterOnShutdown(router.Close)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "route: listening on %s fronting %d replicas\n", *addr, len(urls))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "route: %v\n", err)
		return 1
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "route: %v, shutting down\n", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	return 0
}

// supervisor spawns and revives replica child processes.
type supervisor struct {
	urls         []string
	addrs        []string
	restartDelay time.Duration

	mu       sync.Mutex
	procs    []*exec.Cmd
	stopping atomic.Bool
	wg       sync.WaitGroup
}

func newSupervisor(n, portBase int, restartDelay time.Duration) *supervisor {
	s := &supervisor{restartDelay: restartDelay}
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", portBase+i)
		s.addrs = append(s.addrs, addr)
		s.urls = append(s.urls, "http://"+addr)
	}
	s.procs = make([]*exec.Cmd, n)
	return s
}

func (s *supervisor) startAll() {
	for i := range s.addrs {
		s.wg.Add(1)
		go s.supervise(i)
	}
}

// supervise runs replica i — `finserve serve -addr` and nothing else, so
// every replica is configured identically — restarting it after
// restartDelay when it dies unexpectedly. Every (re)start logs the pid so a script can kill a
// specific replica (scripts/smoke.sh checks the revival).
func (s *supervisor) supervise(i int) {
	defer s.wg.Done()
	for {
		if s.stopping.Load() {
			return
		}
		cmd := exec.Command(os.Args[0], "serve", "-addr", s.addrs[i])
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "route: replica %d failed to start: %v\n", i, err)
			return
		}
		s.mu.Lock()
		s.procs[i] = cmd
		s.mu.Unlock()
		fmt.Fprintf(os.Stderr, "route: replica %d pid %d addr %s\n", i, cmd.Process.Pid, s.addrs[i])
		err := cmd.Wait()
		if s.stopping.Load() {
			return
		}
		fmt.Fprintf(os.Stderr, "route: replica %d exited: %v\n", i, err)
		if s.restartDelay <= 0 {
			return
		}
		time.Sleep(s.restartDelay)
	}
}

func (s *supervisor) stopAll() {
	s.stopping.Store(true)
	s.mu.Lock()
	for _, cmd := range s.procs {
		if cmd != nil && cmd.Process != nil {
			_ = cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.mu.Lock()
		for _, cmd := range s.procs {
			if cmd != nil && cmd.Process != nil {
				_ = cmd.Process.Kill()
			}
		}
		s.mu.Unlock()
	}
}
