package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind: the finserve binary and
// the span files. It is ignored by git.
const outDir = "benchmark/out"

// buildServer compiles cmd/finserve into outDir and returns the binary's
// path and the build's wall time. It must run from the repository root.
func buildServer() (string, float64, error) {
	if _, err := os.Stat("cmd/finserve"); err != nil {
		return "", 0, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "finserve"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/finserve")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("building cmd/finserve: %w", err)
	}
	return bin, time.Since(start).Seconds(), nil
}

// preflight refuses to measure beside another finserve (a forgotten
// always-dirty -stream server ticks CPU forever and skews every number)
// and returns the 1-minute load average for the record.
func preflight() (load1 float64, err error) {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		comm, err := os.ReadFile("/proc/" + e.Name() + "/comm")
		if err != nil {
			continue // the process exited between ReadDir and here
		}
		if strings.TrimSpace(string(comm)) == "finserve" {
			return 0, fmt.Errorf("another finserve is running (pid %s); stop it before measuring", e.Name())
		}
	}
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, err
	}
	if f := strings.Fields(string(data)); len(f) > 0 {
		load1, _ = strconv.ParseFloat(f[0], 64) // a malformed loadavg reads as 0
	}
	return load1, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// deployment is one booted topology: every server process is a direct
// child of the benchmark, in its own process group.
type deployment struct {
	base     string   // URL requests are sent to
	replicas []string // replica URLs behind a router (empty for a lone server)
	procs    []*exec.Cmd
}

// spawn starts finserve with args in its own process group. Pdeathsig
// takes the child down with the benchmark on exit paths that run no
// deferred call (SIGKILL of the benchmark, a panic in another goroutine).
func (d *deployment) spawn(bin string, args ...string) error {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	d.procs = append(d.procs, cmd)
	return nil
}

// pids lists the server processes, for /proc accounting.
func (d *deployment) pids() []int {
	pids := make([]int, len(d.procs))
	for i, c := range d.procs {
		pids[i] = c.Process.Pid
	}
	return pids
}

// stop kills every process group and waits for each child, so no server
// outlives the run.
func (d *deployment) stop() {
	for _, c := range d.procs {
		_ = syscall.Kill(-c.Process.Pid, syscall.SIGKILL) // the group may already be gone
	}
	for _, c := range d.procs {
		_ = c.Wait() // a killed child reports "signal: killed"; that is the expected exit
	}
	d.procs = nil
}

// deploy boots the workload's topology on free loopback ports and returns
// once every server is routable. Replicas come up first so the router's
// start-up health sweep already sees them.
func deploy(bin string, w *workload) (*deployment, error) {
	d := &deployment{}
	n := 1
	if w.routed {
		n = 3
	}
	urls := make([]string, n)
	addrs := make([]string, n)
	for i := range urls {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs[i] = "127.0.0.1:" + strconv.Itoa(port)
		urls[i] = "http://" + addrs[i]
	}
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, err
	}
	if !w.routed {
		if err := d.spawn(bin, "serve", "-addr", addrs[0]); err != nil {
			return fail(err)
		}
		d.base = urls[0]
		if err := waitReady(d.base, 0); err != nil {
			return fail(err)
		}
		return d, nil
	}
	d.replicas = urls[1:]
	for i := 1; i < n; i++ {
		if err := d.spawn(bin, "serve", "-addr", addrs[i]); err != nil {
			return fail(err)
		}
	}
	for _, u := range d.replicas {
		if err := waitReady(u, 0); err != nil {
			return fail(err)
		}
	}
	args := []string{"route", "-addr", addrs[0], "-backends", strings.Join(d.replicas, ",")}
	if w.cacheBytes > 0 {
		args = append(args, "-cache-tier", "router", "-cache-bytes", strconv.FormatInt(w.cacheBytes, 10))
	}
	if err := d.spawn(bin, args...); err != nil {
		return fail(err)
	}
	d.base = urls[0]
	if err := waitReady(d.base, len(d.replicas)); err != nil {
		return fail(err)
	}
	return d, nil
}

// waitReady polls GET /healthz until it answers 200 and, for a router,
// reports wantRoutable routable replicas.
func waitReady(base string, wantRoutable int) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		if last = probe(client, base, wantRoutable); last == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 10s: %w", base, last)
}

func probe(client *http.Client, base string, wantRoutable int) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	if wantRoutable == 0 {
		return nil
	}
	var h struct {
		Routable int `json:"replicas_routable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return err
	}
	if h.Routable < wantRoutable {
		return errors.New("replicas not yet routable")
	}
	return nil
}

// getJSON decodes a GET response body into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s answered %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
