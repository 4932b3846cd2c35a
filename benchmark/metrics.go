package main

// metricDef names one metric, its unit and which direction is better. The
// two tables below are the code's copy of BENCHMARK.json; a tier-1 test
// fails when they drift apart.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change is rejected; per-layer metrics have none.
	bound float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_items_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"ok_frac", "frac", "higher", 0.001},
}

var perLayer = []metricDef{
	// The benchmark's own driver.
	{"client.encode_us_p50", "us", "lower", 0},
	{"client.decode_us_p50", "us", "lower", 0},
	{"client.rtt_ms_p99", "ms", "lower", 0},
	{"client.rtt_ms_p999", "ms", "lower", 0},
	{"client.transport_us_p50", "us", "lower", 0},
	{"client.cpu_frac", "frac", "lower", 0},
	{"client.server_cpu_us_per_item", "us", "lower", 0},
	{"client.verified", "count", "higher", 0},
	{"client.mismatch", "count", "lower", 0},

	{"host.nproc", "count", "higher", 0},
	{"host.load1_start", "count", "lower", 0},
	{"host.build_s", "s", "lower", 0},
	{"host.calib_mops_s", "M/s", "higher", 0},
	{"host.stream_triad_gb_s", "GB/s", "higher", 0},
	{"host.stream_array_mb", "MB", "higher", 0},
	{"host.llc_mb", "MB", "higher", 0},
	{"host.fma_gflops", "GFLOP/s", "higher", 0},
	{"host.server_peak_rss_mb", "MB", "lower", 0},

	{"wire.json_decode_ns_per_opt", "ns", "lower", 0},
	{"wire.json_encode_ns_per_opt", "ns", "lower", 0},
	{"wire.greeks_encode_ns_per_opt", "ns", "lower", 0},
	{"wire.columnar_decode_ns_per_opt", "ns", "lower", 0},
	{"wire.columnar_encode_ns_per_opt", "ns", "lower", 0},
	{"wire.allocs_per_req", "count", "lower", 0},

	{"deadline.acquire_release_ns", "ns", "lower", 0},

	{"coalesce.wait_us_p50", "us", "lower", 0},
	{"coalesce.wait_us_pair_p50", "us", "lower", 0},
	{"coalesce.tickets_per_flush", "count", "higher", 0},
	{"coalesce.coalesced_frac", "frac", "higher", 0},

	{"pricecache.digest_ns_per_opt", "ns", "lower", 0},
	{"pricecache.hit_us", "us", "lower", 0},
	{"pricecache.miss_insert_us", "us", "lower", 0},
	{"pricecache.hit_frac", "frac", "higher", 0},
	{"pricecache.evictions_per_miss", "count", "lower", 0},
	{"pricecache.resident_mb", "MB", "lower", 0},

	{"serve.price_json16_us", "us", "lower", 0},
	{"serve.greeks16_us", "us", "lower", 0},
	{"serve.price_json1024_us", "us", "lower", 0},
	{"serve.price_columnar32k_us", "us", "lower", 0},
	{"serve.heavy_binomial_ms", "ms", "lower", 0},
	{"serve.heavy_cn_ms", "ms", "lower", 0},
	{"serve.heavy_mc_ms", "ms", "lower", 0},
	{"serve.scenario_ms", "ms", "lower", 0},
	{"serve.allocs_per_req", "count", "lower", 0},
	{"serve.shed_frac", "frac", "lower", 0},
	{"serve.unattributed_frac_price", "frac", "lower", 0},
	{"serve.unattributed_frac_greeks", "frac", "lower", 0},
	{"serve.unattributed_frac_scenario", "frac", "lower", 0},

	{"shard.forward_overhead_us", "us", "lower", 0},
	{"shard.scatter_overhead_ms", "ms", "lower", 0},
	{"shard.attempts_per_req", "count", "lower", 0},
	{"shard.partitions_per_req", "count", "higher", 0},
	{"shard.retries", "count", "lower", 0},
	{"shard.hedge_wins", "count", "lower", 0},
	{"shard.replica_balance", "frac", "higher", 0},

	{"parallel.launch_ns", "ns", "lower", 0},
	{"parallel.dispatched", "count", "higher", 0},
	{"parallel.steals", "count", "lower", 0},
	{"parallel.serial_frac", "frac", "lower", 0},
	{"parallel.scaling_eff_bs", "frac", "higher", 0},
	{"parallel.scaling_eff_mc", "frac", "higher", 0},

	{"blackscholes.advanced_mopts_s", "M/s", "higher", 0},
	{"blackscholes.advanced16_mopts_s", "M/s", "higher", 0},
	{"blackscholes.greeks_mopts_s", "M/s", "higher", 0},
	{"blackscholes.grid_mvals_s", "M/s", "higher", 0},
	{"blackscholes.vecops_per_opt", "count", "lower", 0},
	{"blackscholes.roofline_frac", "frac", "higher", 0},

	{"binomial.opts_s", "1/s", "higher", 0},
	{"binomial.mnodes_s", "M/s", "higher", 0},
	{"cranknicolson.opts_s", "1/s", "higher", 0},
	{"cranknicolson.mcells_s", "M/s", "higher", 0},
	{"montecarlo.mpaths_s", "M/s", "higher", 0},
	{"montecarlo.heston_scen_s", "1/s", "higher", 0},
	{"montecarlo.jump_scen_s", "1/s", "higher", 0},
	{"montecarlo.basket_scen_s", "1/s", "higher", 0},
	{"rng.normals_m_s", "M/s", "higher", 0},
	{"rng.uniforms_m_s", "M/s", "higher", 0},
	{"brownian.mpaths_s", "M/s", "higher", 0},

	{"scenario.evaluate_mvals_s", "M/s", "higher", 0},
	{"scenario.finalize_us", "us", "lower", 0},
	{"scenario.partition_us", "us", "lower", 0},
	{"scenario.kahan_ns_per_add", "ns", "lower", 0},
	{"scenario.plain_ns_per_add", "ns", "lower", 0},

	{"stream.step_all_dirty_us", "us", "lower", 0},
	{"stream.step_clean_us", "us", "lower", 0},
	{"stream.entries_s", "1/s", "higher", 0},
	{"stream.frame_bytes_per_entry", "B", "lower", 0},
	{"ticker.next_ns", "ns", "lower", 0},

	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.spans", "count", "higher", 0},
}

// metricSet collects the values of one table; every name must be set
// exactly once before the result is printed.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metric, len(defs))}
}

func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.name == name {
			s.values[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table") // a bug in this package, not an input
}

// missing lists table names that were never set.
func (s *metricSet) missing() []string {
	var out []string
	for _, d := range s.defs {
		if _, ok := s.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}
