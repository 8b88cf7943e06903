package main

import "unigpu/bench/e2e/harness"

// runSeconds is the measured window the driver asks for. The driver makes
// 4 + 22 x 5 runs inside 3420 s, set-up and builds included, so one run has
// about 29 s; 16 s of window leaves room for three timed set-ups, the
// reference outputs and the warm-up of the slowest workload (the fleet's
// traced pass, which sets up twice and replays three compiles).
const runSeconds = 16

// spec is the single source of BENCHMARK.json (printed by -spec) and of the
// units the benchmark prints; TestSpecMatchesBenchmarkJSON keeps the file
// and this table equal.
var spec = harness.Spec{
	Command:    []string{"go", "run", "./bench/e2e"},
	Paths:      []string{"bench"},
	RunSeconds: runSeconds,
	Workloads:  workloadSpecs(),
	// The three host-clock metrics are stated in reference-host time (hostProbe
	// in probes.go): as timed, they follow the state of the shared 2-core host
	// this is gated on, which moves them by half. Their bounds stay the widest
	// the driver allows, because what the probe does not take out is still a
	// tenth (bench/README.md, Sizing). The 90th percentile is not here for the
	// reason p95 and p99 never were: over ten runs its spread reached 28 %, so
	// it is a client.* row of the traced pass, reported and not gated.
	EndToEnd: []harness.BoundedMetric{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "throughput_rps", Unit: "req/s", Better: "higher", Bound: 0.25},
		{Name: "success_share", Unit: "ratio", Better: "higher", Bound: 0.001},
		{Name: "sim_latency_ms", Unit: "sim_ms", Better: "lower", Bound: 0.01},
		{Name: "allocs_per_req", Unit: "count", Better: "lower", Bound: 0.05},
		{Name: "arena_kib", Unit: "KiB", Better: "lower", Bound: 0.01},
	},
	PerLayer: []harness.Metric{
		// Compile pipeline, one call into each package's public function.
		{Name: "engine.compile_ms", Unit: "ms", Better: "lower"},
		{Name: "models.build_ms", Unit: "ms", Better: "lower"},
		{Name: "graph.optimize_ms", Unit: "ms", Better: "lower"},
		{Name: "graph.quantize_ms", Unit: "ms", Better: "lower"},
		{Name: "graph.select_ms", Unit: "ms", Better: "lower"},
		{Name: "graphtuner.tune_ms", Unit: "ms", Better: "lower"},
		{Name: "runtime.plan.build_ms", Unit: "ms", Better: "lower"},
		{Name: "autotvm.tune_trials", Unit: "count", Better: "lower"},
		{Name: "autotvm.db_hits", Unit: "count", Better: "higher"},
		// What the compiler decided.
		{Name: "graph.nodes_after", Unit: "count", Better: "lower"},
		{Name: "graph.nodes_fused", Unit: "count", Better: "higher"},
		{Name: "graph.casts_inserted", Unit: "count", Better: "lower"},
		{Name: "graph.casts_fused", Unit: "count", Better: "higher"},
		{Name: "graph.kernels.gemm", Unit: "count", Better: "higher"},
		{Name: "graph.kernels.direct", Unit: "count", Better: "lower"},
		{Name: "graph.kernels.depthwise", Unit: "count", Better: "higher"},
		{Name: "graph.kernels.winograd", Unit: "count", Better: "higher"},
		{Name: "graph.quantize.max_rel_err", Unit: "ratio", Better: "lower"},
		// Simulated device clock.
		{Name: "sim.conv_ms", Unit: "sim_ms", Better: "lower"},
		{Name: "sim.transform_ms", Unit: "sim_ms", Better: "lower"},
		{Name: "sim.vision_ms", Unit: "sim_ms", Better: "lower"},
		{Name: "sim.conv_rank_corr", Unit: "rho", Better: "higher"},
		{Name: "runtime.plan.gpu_nodes", Unit: "count", Better: "higher"},
		{Name: "runtime.plan.cpu_nodes", Unit: "count", Better: "lower"},
		{Name: "runtime.plan.copies", Unit: "count", Better: "lower"},
		{Name: "runtime.plan.intermediate_kib", Unit: "KiB", Better: "lower"},
		// Host clock, per graph-node kind.
		{Name: "ops.conv_gemm.ms_per_req", Unit: "ms", Better: "lower"},
		{Name: "ops.conv_direct.ms_per_req", Unit: "ms", Better: "lower"},
		{Name: "ops.conv_depthwise.ms_per_req", Unit: "ms", Better: "lower"},
		{Name: "ops.dense.ms_per_req", Unit: "ms", Better: "lower"},
		{Name: "ops.cast.ms_per_req", Unit: "ms", Better: "lower"},
		{Name: "ops.elementwise.ms_per_req", Unit: "ms", Better: "lower"},
		{Name: "ops.pool.ms_per_req", Unit: "ms", Better: "lower"},
		{Name: "ops.other.ms_per_req", Unit: "ms", Better: "lower"},
		{Name: "ops.conv.gflop_per_req", Unit: "GFLOP", Better: "lower"},
		{Name: "ops.conv.gflops", Unit: "GFLOP/s", Better: "higher"},
		{Name: "ops.bytes_per_req", Unit: "bytes", Better: "lower"},
		{Name: "host.peak_gflops", Unit: "GFLOP/s", Better: "higher"},
		{Name: "host.copy_gbs", Unit: "GB/s", Better: "higher"},
		{Name: "host.slowdown", Unit: "ratio", Better: "lower"},
		{Name: "vision.ms_per_req", Unit: "ms", Better: "lower"},
		// Serving layers.
		{Name: "runtime.session.self_us", Unit: "us", Better: "lower"},
		{Name: "runtime.pool.self_us", Unit: "us", Better: "lower"},
		{Name: "runtime.pool.wait_us", Unit: "us", Better: "lower"},
		{Name: "runtime.pool.shed", Unit: "count", Better: "lower"},
		{Name: "runtime.pool.deadline", Unit: "count", Better: "lower"},
		{Name: "runtime.batcher.self_us", Unit: "us", Better: "lower"},
		{Name: "runtime.batcher.wait_us", Unit: "us", Better: "lower"},
		{Name: "runtime.batcher.batch_size_mean", Unit: "count", Better: "higher"},
		{Name: "runtime.batcher.batches_formed", Unit: "count", Better: "higher"},
		{Name: "runtime.batcher.degraded", Unit: "count", Better: "lower"},
		{Name: "runtime.fleet.self_us", Unit: "us", Better: "lower"},
		{Name: "runtime.fleet.served_share_max", Unit: "ratio", Better: "lower"},
		{Name: "runtime.fleet.failovers", Unit: "count", Better: "lower"},
		{Name: "runtime.session.retries", Unit: "count", Better: "lower"},
		{Name: "runtime.session.cpu_reexec", Unit: "count", Better: "lower"},
		{Name: "tensor.arena_reused_kib_per_req", Unit: "KiB", Better: "higher"},
		{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
		// The client's own view of the traced pass.
		{Name: "client.samples", Unit: "count", Better: "higher"},
		{Name: "client.latency_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "client.latency_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "client.latency_max_ms", Unit: "ms", Better: "lower"},
		{Name: "client.cpu_s_per_req", Unit: "cpu_s", Better: "lower"},
		{Name: "client.cpu_util", Unit: "ratio", Better: "higher"},
		{Name: "client.go_alloc_kib_per_req", Unit: "KiB", Better: "lower"},
		{Name: "client.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "client.peak_rss_mib", Unit: "MiB", Better: "lower"},
	},
}

func workloadSpecs() []harness.WorkloadSpec {
	out := make([]harness.WorkloadSpec, len(workloads))
	for i, w := range workloads {
		out[i] = harness.WorkloadSpec{Name: w.name, Why: w.why}
	}
	return out
}
