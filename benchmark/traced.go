package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"finbench/internal/serve"
	"finbench/internal/serve/pricecache"
	"finbench/internal/serve/shard"
)

// The traced run is separate from the metric runs. On one booted topology
// it opens an untraced window, a traced one (a span per request phase,
// /statsz deltas taken at its edges) and a second untraced one, so a drift
// across the run cancels out of the difference between traced and
// untraced throughput, which is the tracing overhead. Then it replays
// generated requests through the layers in-process. The windows take
// 3/20, 8/20 and 3/20 of -seconds (2.25 s, 6 s, 2.25 s at the default 15),
// which leaves the rest of the run's budget to the in-process half.

// counters is the sum, over a topology's processes, of the /statsz
// counters the per-layer metrics are made of.
type counters struct {
	requests, shed                     uint64
	flushes, soloFlushes, coalescedTix uint64
	jobs, serial, dispatched, steals   uint64
	cache                              pricecache.Stats
	retries, hedgeWins                 uint64
	served                             []uint64
}

// readCounters fetches /statsz from every server of the deployment.
func readCounters(d *deployment) (counters, error) {
	var c counters
	serves := d.replicas
	if len(serves) == 0 {
		serves = []string{d.base}
	}
	for _, u := range serves {
		var s serve.StatszResponse
		if err := getJSON(u+"/statsz", &s); err != nil {
			return c, err
		}
		for _, v := range s.Requests {
			c.requests += v
		}
		for _, v := range s.Shed {
			c.shed += v
		}
		c.flushes += s.Coalesce["flushes"]
		c.soloFlushes += s.Coalesce["solo_flushes"]
		c.coalescedTix += s.Coalesce["coalesced_tickets"]
		c.jobs += s.Sched["pool.jobs"]
		c.serial += s.Sched["pool.serial"]
		c.dispatched += s.Sched["pool.dispatched"]
		c.steals += s.Sched["pool.steals"]
	}
	if len(d.replicas) > 0 {
		var r shard.StatszResponse
		if err := getJSON(d.base+"/statsz", &r); err != nil {
			return c, err
		}
		c.retries, c.hedgeWins = r.Retries, r.HedgeWins
		if r.Cache != nil {
			c.cache = *r.Cache
		}
		for _, rep := range r.Replicas {
			c.served = append(c.served, rep.Served)
		}
	}
	return c, nil
}

// setServerMetrics turns the counter deltas of the traced window into the
// per-layer metrics only the deployed servers can report.
func setServerMetrics(m *metricSet, c0, c1 counters) {
	d := func(a, b uint64) float64 { return float64(b - a) }
	tickets := d(c0.soloFlushes, c1.soloFlushes) + d(c0.coalescedTix, c1.coalescedTix)
	m.set("coalesce.tickets_per_flush", ratio(tickets, d(c0.flushes, c1.flushes)))
	m.set("coalesce.coalesced_frac", ratio(d(c0.coalescedTix, c1.coalescedTix), tickets))

	hits := d(c0.cache.Hits, c1.cache.Hits) + d(c0.cache.Collapsed, c1.cache.Collapsed)
	misses := d(c0.cache.Misses, c1.cache.Misses)
	m.set("pricecache.hit_frac", ratio(hits, hits+misses))
	m.set("pricecache.evictions_per_miss", ratio(d(c0.cache.Evictions, c1.cache.Evictions), misses))
	m.set("pricecache.resident_mb", float64(c1.cache.Bytes)/1e6)

	m.set("serve.shed_frac", ratio(d(c0.shed, c1.shed), d(c0.requests, c1.requests)))
	m.set("shard.retries", d(c0.retries, c1.retries))
	m.set("shard.hedge_wins", d(c0.hedgeWins, c1.hedgeWins))
	lo, hi := 0.0, 0.0
	for i := range c1.served {
		v := float64(c1.served[i] - c0.served[i])
		if i == 0 || v < lo {
			lo = v
		}
		hi = max(hi, v)
	}
	m.set("shard.replica_balance", ratio(lo, hi))

	regions := d(c0.jobs, c1.jobs) + d(c0.serial, c1.serial)
	m.set("parallel.dispatched", d(c0.dispatched, c1.dispatched))
	m.set("parallel.steals", d(c0.steals, c1.steals))
	m.set("parallel.serial_frac", ratio(d(c0.serial, c1.serial), regions))
}

// runTraced is the traced run of one workload: every per-layer metric,
// and the spans in benchmark/out/trace-<workload>.jsonl.
func runTraced(env *runEnv, w *workload, seed uint64, seconds int) (*report, error) {
	clients := runtime.NumCPU()
	total := time.Duration(seconds) * time.Second
	edge, middle := total*3/20, total*8/20
	m := newMetricSet(perLayer)
	tr := newTracer()

	b, err := setUp(env, w, seed, clients)
	if err != nil {
		return nil, err
	}
	defer b.dep.stop()
	before, err := measure(b, edge, clients, nil)
	if err != nil {
		return nil, err
	}
	c0, err := readCounters(b.dep)
	if err != nil {
		return nil, err
	}
	traced, err := measure(b, middle, clients, tr)
	if err != nil {
		return nil, err
	}
	c1, err := readCounters(b.dep)
	if err != nil {
		return nil, err
	}
	after, err := measure(b, edge, clients, nil)
	if err != nil {
		return nil, err
	}
	m.set("host.server_peak_rss_mb", peakRSSMB(b.dep.pids()))
	b.dep.stop()

	verified, mismatch := 0, 0
	for _, p := range []*phase{b.warm, before.ph, traced.ph, after.ph} {
		v, mm := verifyAll(p)
		verified += v
		mismatch += mm
	}
	rep := &report{workload: w, seed: seed, digest: b.in.digest}
	rep.addPhase("warm-up", b.warm)
	rep.addPhase("untraced before", before.ph)
	rep.addPhase("traced window", traced.ph)
	rep.addPhase("untraced after", after.ph)
	rep.res.Correct = rep.res.Failed == 0

	ph := traced.ph
	lat := sortedCopy(ph.latMS)
	m.set("client.encode_us_p50", percentile(sortedCopy(ph.encodeUS), 0.5))
	m.set("client.decode_us_p50", percentile(sortedCopy(ph.decodeUS), 0.5))
	m.set("client.rtt_ms_p99", percentile(lat, 0.99))
	m.set("client.rtt_ms_p999", percentile(lat, 0.999))
	m.set("client.transport_us_p50", percentile(sortedCopy(ph.transportUS), 0.5))
	m.set("client.cpu_frac", ratio(traced.clientCPUs, traced.clientCPUs+traced.serverCPUs))
	m.set("client.server_cpu_us_per_item", ratio(traced.serverCPUs*1e6, float64(ph.items)))
	m.set("client.verified", float64(verified))
	m.set("client.mismatch", float64(mismatch))
	m.set("host.load1_start", env.load1)
	m.set("host.build_s", env.buildS)
	m.set("host.calib_mops_s", env.calibMops)
	m.set("shard.attempts_per_req", ratio(float64(ph.route.attempts), float64(ph.route.forwarded)))
	m.set("shard.partitions_per_req", ratio(float64(ph.route.partitions), float64(ph.route.scattered)))
	setServerMetrics(m, c0, c1)
	plain := ratio(float64(before.ph.items+after.ph.items), before.win.seconds()+after.win.seconds())
	m.set("trace.overhead_frac", 1-ratio(traced.win.rate(ph.items), plain))

	// The in-process half runs with the servers gone, so nothing competes
	// with the layer it is timing.
	if err := measureLayers(seed, m); err != nil {
		return nil, err
	}
	rp, err := newReplayer(tr)
	if err != nil {
		return nil, err
	}
	for _, each := range workloads {
		if err := rp.replay(each, each.genSmall(seed)); err != nil {
			rp.close()
			return nil, err
		}
	}
	rp.close()
	m.set("serve.unattributed_frac_price", unattributedFrac(tr.spans, "quote_small_json", "/price"))
	m.set("serve.unattributed_frac_greeks", unattributedFrac(tr.spans, "quote_small_json", "/greeks"))
	m.set("serve.unattributed_frac_scenario", unattributedFrac(tr.spans, "scenario_grid_routed", "/scenario"))
	m.set("trace.spans", float64(len(tr.spans)))
	path := filepath.Join(outDir, "trace-"+w.name+".jsonl")
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	if missing := m.missing(); len(missing) > 0 {
		return nil, fmt.Errorf("per-layer metrics never set: %v", missing)
	}
	rep.res.Metrics = m.values
	rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	return rep, nil
}
