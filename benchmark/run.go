package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"finbench/internal/benchreg"
)

// setupRepeats is how many times a metric run boots and warms the
// topology; setup_s is the median, and the last boot is the one measured.
const setupRepeats = 3

// defaultSeconds is the measured window when -seconds is not given; it is
// the run_seconds of BENCHMARK.json.
const defaultSeconds = 15

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runEnv is what every run of one invocation shares: the built server,
// and the host facts taken before anything is measured.
type runEnv struct {
	bin    string
	buildS float64
	load1  float64
	// calibMops is benchreg.Calibrate's register-only loop, in millions
	// of iterations a second: this shared VM slows by a fifth for minutes
	// at a time, and this number, printed with every run, says so.
	calibMops float64
}

func prepare() (*runEnv, error) {
	load1, err := preflight()
	if err != nil {
		return nil, err
	}
	bin, buildS, err := buildServer()
	if err != nil {
		return nil, err
	}
	calib := benchreg.Calibrate(benchreg.Opts{Warmup: 1, Reps: 3, MinDuration: 15 * time.Millisecond})
	return &runEnv{bin: bin, buildS: buildS, load1: load1, calibMops: calib / 1e6}, nil
}

// booted is a topology that has been set up: servers routable, inputs
// generated, warm-up sent.
type booted struct {
	dep    *deployment
	in     *inputs
	warm   *phase
	next   *atomic.Int64
	setupS float64
}

// setUp is everything setup_s measures: spawn until every server is
// routable, generate the input pool, send the warm-up. The server build
// is excluded.
func setUp(env *runEnv, w *workload, seed uint64, clients int) (*booted, error) {
	start := time.Now()
	dep, err := deploy(env.bin, w)
	if err != nil {
		return nil, err
	}
	b := &booted{dep: dep, in: w.gen(seed), next: new(atomic.Int64)}
	b.warm = drive(dep.base, b.in, driveOpts{clients: clients, next: b.next, count: int64(w.warmup), keepEvery: 1})
	b.setupS = time.Since(start).Seconds()
	return b, nil
}

// measured is one window and the process accounting taken at its edges.
type measured struct {
	win        window
	ph         *phase
	serverCPUs float64 // CPU seconds of every server pid inside the window
	clientCPUs float64 // CPU seconds of the benchmark process inside it
}

// preheat keeps every CPU busy for d. This VM answers wake-ups faster
// for some twenty seconds after its CPUs have been busy, and a workload
// that mostly waits (quote_small_json uses a sixth of a core) then runs
// 15 % faster — so what ran before a window would decide its numbers.
// Spinning right before every window puts each one in the same state.
func preheat(d time.Duration) {
	stop := time.Now().Add(d)
	forChunks(runtime.NumCPU(), runtime.NumCPU(), func(_, _ int) {
		for time.Now().Before(stop) {
		}
	})
}

// measure opens a window of the given length on a warmed topology.
// Server CPU is read at the window's edges, not after stragglers finish.
func measure(b *booted, length time.Duration, clients int, tr *tracer) (*measured, error) {
	preheat(time.Second)
	pids := b.dep.pids()
	self := []int{os.Getpid()}
	cpu0, err := cpuTicks(pids)
	if err != nil {
		return nil, err
	}
	self0, err := cpuTicks(self)
	if err != nil {
		return nil, err
	}
	m := &measured{}
	m.win.open = time.Now()
	m.win.close = m.win.open.Add(length)
	done := make(chan *phase, 1)
	go func() {
		done <- drive(b.dep.base, b.in, driveOpts{clients: clients, next: b.next, win: m.win, keepEvery: sampleEvery, tr: tr})
	}()
	time.Sleep(time.Until(m.win.close))
	cpu1, err1 := cpuTicks(pids)
	self1, err2 := cpuTicks(self)
	m.ph = <-done
	if err1 != nil {
		return nil, err1
	}
	if err2 != nil {
		return nil, err2
	}
	m.serverCPUs = float64(cpu1-cpu0) / clockTicksPerSecond
	m.clientCPUs = float64(self1-self0) / clockTicksPerSecond
	return m, nil
}

// report is a finished run, ready to print.
type report struct {
	workload *workload
	seed     uint64
	digest   string
	res      result
	phases   []phaseLine
	failures []failure
	notes    []string
}

// phaseLine is the attempted/failed count of one phase.
type phaseLine struct {
	name              string
	attempted, failed int
}

func (r *report) addPhase(name string, p *phase) {
	r.phases = append(r.phases, phaseLine{name, p.attempted, p.failed})
	r.res.Attempted += p.attempted
	r.res.Failed += p.failed
	r.failures = append(r.failures, p.failures...)
}

// runMetric is the untraced run: it measures the end-to-end metrics
// of one workload and traces nothing.
func runMetric(env *runEnv, w *workload, seed uint64, seconds int) (*report, error) {
	clients := runtime.NumCPU()
	var setups []float64
	var b *booted
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.dep.stop()
		}
		var err error
		if b, err = setUp(env, w, seed, clients); err != nil {
			return nil, err
		}
		setups = append(setups, b.setupS)
	}
	defer b.dep.stop()

	m, err := measure(b, time.Duration(seconds)*time.Second, clients, nil)
	if err != nil {
		return nil, err
	}
	b.dep.stop()

	verifyAll(b.warm)
	verifyAll(m.ph)
	rep := &report{workload: w, seed: seed, digest: b.in.digest}
	rep.addPhase("warm-up", b.warm)
	rep.addPhase("window", m.ph)
	rep.res.Correct = rep.res.Failed == 0

	lat := sortedCopy(m.ph.latMS)
	ok := rep.res.Attempted - rep.res.Failed
	rep.res.Metrics = map[string]metric{
		"setup_s":            {benchreg.Median(setups), "s"},
		"throughput_items_s": {m.win.rate(m.ph.items), "1/s"},
		"latency_p50_ms":     {percentile(lat, 0.50), "ms"},
		"latency_p95_ms":     {percentile(lat, 0.95), "ms"},
		"ok_frac":            {float64(ok) / float64(max(rep.res.Attempted, 1)), "frac"},
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("latency samples %d; client.rtt_ms_p99 %.3f, client.rtt_ms_p999 %.3f, client.server_cpu_us_per_item %.4g (reported, not gated)",
			len(lat), percentile(lat, 0.99), percentile(lat, 0.999), ratio(m.serverCPUs*1e6, float64(m.ph.items))),
		fmt.Sprintf("setup_s repeats %.3f; client cpu share %.3f; host.load1_start %.2f; host.build_s %.2f; host.calib_mops_s %.1f",
			setups, ratio(m.clientCPUs, m.clientCPUs+m.serverCPUs), env.load1, env.buildS, env.calibMops))
	return rep, nil
}
