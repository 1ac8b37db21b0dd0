package main

// metricDef declares one metric as BENCHMARK.json lists it. bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEndMetrics are what a user of the loop sees; report.endToEnd emits
// them in this order. fail_frac, miss_ratio and the worst-case tracking
// figures are printed with them but cannot be declared here: the first two
// are zero on a healthy run and a relative bound on zero is meaningless,
// so failures travel in the result line's attempted/failed/correct and
// miss_ratio is declared per layer as loop.miss_ratio.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"periods_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_tail_us", "us", "lower", 0.25},
	{"allocs_per_period", "count", "lower", 0.05},
	{"alloc_bytes_per_period", "B", "lower", 0.05},
	{"mem_peak_rss_mb", "MB", "lower", 0.15},
	{"track_err", "utilization", "lower", 0.15},
	{"track_std", "utilization", "lower", 0.10},
}

// layerMetrics are the per-layer metrics of a traced run, grouped by
// layer. Every workload reports all of them; a layer that is not on a
// workload's loop reports 0. README.md says which end-to-end metric each
// should move, on which workload.
var layerMetrics = []metricDef{
	// The trace itself and the loop-level figures that cannot carry a
	// relative bound.
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.span_coverage", "ratio", "higher", 0},
	{"trace.residual_frac", "ratio", "lower", 0},
	{"loop.miss_ratio", "ratio", "lower", 0},
	{"loop.track_err_worst", "utilization", "lower", 0},
	{"loop.track_std_worst", "utilization", "lower", 0},

	{"sim.plant_us_per_period", "us", "lower", 0},
	{"sim.plant_share", "ratio", "lower", 0},
	{"sim.jobs_per_period", "count", "lower", 0},
	{"sim.plant_ns_per_job", "ns", "lower", 0},
	{"sim.reset_us", "us", "lower", 0},

	{"core.step_p50_us", "us", "lower", 0},
	{"core.step_p99_us", "us", "lower", 0},
	{"core.step_max_us", "us", "lower", 0},
	{"core.step_share", "ratio", "lower", 0},
	{"core.step_allocs", "count", "lower", 0},
	{"core.self_us", "us", "lower", 0},
	{"core.relaxed_frac", "ratio", "lower", 0},
	{"core.degraded_steps", "count", "lower", 0},

	{"mpc.step_p50_us", "us", "lower", 0},
	{"mpc.qp_iters_per_step", "count", "lower", 0},
	{"mpc.qp_iters_p99", "count", "lower", 0},
	{"mpc.one_iter_frac", "ratio", "higher", 0},
	{"mpc.outcome.ok", "count", "higher", 0},
	{"mpc.outcome.relaxed", "count", "lower", 0},
	{"mpc.outcome.best_iterate", "count", "lower", 0},
	{"mpc.outcome.regularized", "count", "lower", 0},
	{"mpc.outcome.held", "count", "lower", 0},

	{"qp.lsi_cold_us.n24", "us", "lower", 0},
	{"qp.lsi_warm_us.n24", "us", "lower", 0},
	{"qp.lsi_interior_us.n24", "us", "lower", 0},
	{"mat.qr_factor_us.n24", "us", "lower", 0},
	{"mat.lu_factor_us.n24", "us", "lower", 0},
	{"mat.chol_solve_us.n24", "us", "lower", 0},
	{"qp.lsi_cold_us.n40", "us", "lower", 0},
	{"qp.lsi_warm_us.n40", "us", "lower", 0},
	{"qp.lsi_interior_us.n40", "us", "lower", 0},
	{"mat.qr_factor_us.n40", "us", "lower", 0},
	{"mat.lu_factor_us.n40", "us", "lower", 0},
	{"mat.chol_solve_us.n40", "us", "lower", 0},

	{"empc.compile_s", "s", "lower", 0},
	{"empc.regions", "count", "lower", 0},
	{"empc.hit_ratio", "ratio", "higher", 0},
	{"empc.step_p50_us", "us", "lower", 0},

	{"deucon.step_p50_us", "us", "lower", 0},
	{"deucon.step_p99_us", "us", "lower", 0},
	{"deucon.step_share", "ratio", "lower", 0},
	{"deucon.local_us", "us", "lower", 0},
	{"deucon.msgs_per_period", "count", "lower", 0},
	{"deucon.relaxed_frac", "ratio", "lower", 0},
	{"deucon.degraded", "count", "lower", 0},
	{"deucon.step_allocs", "count", "lower", 0},

	{"experiments.parallel_speedup", "ratio", "higher", 0},
	{"experiments.pool_overhead_frac", "ratio", "lower", 0},

	{"lane.v1.encode_ns", "ns", "lower", 0},
	{"lane.v1.decode_ns", "ns", "lower", 0},
	{"lane.v1.rates_bytes", "B", "lower", 0},
	{"lane.v2.encode_ns", "ns", "lower", 0},
	{"lane.v2.decode_ns", "ns", "lower", 0},
	{"lane.v2.rates_bytes", "B", "lower", 0},
	{"lane.json.encode_ns", "ns", "lower", 0},
	{"lane.json.decode_ns", "ns", "lower", 0},
	{"lane.json.rates_bytes", "B", "lower", 0},
	{"lane.batch_bytes", "B", "lower", 0},
	{"lane.queue_handoff_ns", "ns", "lower", 0},
	{"lane.conn_rtt_us", "us", "lower", 0},
	{"lane.pipe_rtt_us", "us", "lower", 0},
	{"lane.wire_bytes_in_per_period", "B", "lower", 0},
	{"lane.wire_bytes_out_per_period", "B", "lower", 0},
	{"lane.reads_per_period", "count", "lower", 0},
	{"lane.writes_per_period", "count", "lower", 0},

	{"agent.step_p50_us", "us", "lower", 0},
	{"agent.step_share", "ratio", "lower", 0},
	{"agent.collect_us", "us", "lower", 0},
	{"agent.overhead_us", "us", "lower", 0},
	{"agent.join_ms", "ms", "lower", 0},
	{"agent.queue.sent", "count", "lower", 0},
	{"agent.queue.coalesced", "count", "lower", 0},
	{"agent.queue.superseded", "count", "lower", 0},
	{"agent.queue.dropped", "count", "lower", 0},
}

// layerIndex finds a per-layer metric's declaration by name.
var layerIndex = func() map[string]int {
	idx := make(map[string]int, len(layerMetrics))
	for i, d := range layerMetrics {
		idx[d.name] = i
	}
	return idx
}()
