package main

import (
	"fmt"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"syscall"
	"time"

	"unigpu"
	"unigpu/bench/e2e/harness"
	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/obs"
	"unigpu/internal/runtime"
	"unigpu/internal/sim"
)

// The traced pass measures layers from outside. A span is either the
// benchmark timing one call into a layer's public function ("call"), or an
// interval the program's own telemetry recorded ("telemetry") where the
// callee is not reachable from here: obs.RequestTracker at every request
// (admission, queue, gather/scatter, per-node events), obs.Profiler at every
// run (per-node totals, the only record of batched executions), and the
// obs registry counters. Nothing inside the program is changed.

// baselineShare of the window runs untraced at the same client count, so
// that obs.overhead_pct compares like with like; the rest is traced.
const baselineShare = 0.35

// stages times one call into each compile-pipeline package, in the order
// Engine.Compile makes them, on the benchmark's own copy of the model.
type stages struct {
	buildMs, optimizeMs, quantizeMs, selectMs, tuneMs, planMs float64
	nodesAfter, nodesFused                                    float64 // per compile
	convGFLOP, bytes                                          float64 // per request, from shapes
	graph                                                     *graph.Graph
	device                                                    *sim.Device
}

var fusionCounters = []string{
	"fusion.nodes_fused.activation", "fusion.nodes_fused.dense",
	"fusion.nodes_fused.residual", "fusion.nodes_fused.elementwise",
}

func counter(name string) float64 { return float64(obs.DefaultRegistry.Counter(name).Value()) }

func counters(names ...string) float64 {
	var s float64
	for _, n := range names {
		s += counter(n)
	}
	return s
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

func (w *workload) replayCompile() (*stages, error) {
	mode, _ := graph.ParseQuantMode(w.dtype)
	// As setUp compiles: DeepLens, or FallbackNMS on each paper platform.
	plats := []*unigpu.Platform{unigpu.DeepLens}
	placement := graph.PlacementOptions{}
	if w.fleet {
		plats = unigpu.Platforms()
		placement.FallbackKinds = map[string]bool{"box_nms": true, "multibox_detection": true}
	}
	st := &stages{}
	for _, p := range plats {
		eng := unigpu.NewEngineWith(unigpu.EngineOptions{DB: unigpu.NewTuningDB("")})

		t0 := time.Now()
		m := models.Build(w.model, w.size, false)
		st.buildMs += msSince(t0)

		fused0 := counters(fusionCounters...)
		t0 = time.Now()
		graph.Optimize(m.Graph)
		st.optimizeMs += msSince(t0)
		st.nodesFused += counters(fusionCounters...) - fused0

		t0 = time.Now()
		if _, err := graph.QuantizeGraph(m.Graph, graph.QuantizeOptions{Mode: mode, Device: p.GPU}); err != nil {
			return nil, err
		}
		st.quantizeMs += msSince(t0)

		t0 = time.Now()
		graph.SelectConvKernels(m.Graph, graph.KernelSelection{Device: p.GPU, DB: eng.TuningDB()})
		st.selectMs += msSince(t0)

		graph.PlaceDevices(m.Graph, placement)

		t0 = time.Now()
		eng.Experiments().TunedConvMs(m, p.GPU)
		st.tuneMs += msSince(t0)

		t0 = time.Now()
		if _, err := runtime.NewPlan(m.Graph); err != nil {
			return nil, err
		}
		st.planMs += msSince(t0)

		st.nodesAfter += float64(len(m.Graph.OpNodes()))
		if st.graph == nil {
			st.graph, st.device = m.Graph, p.GPU
		}
	}
	st.nodesAfter /= float64(len(plats))
	st.nodesFused /= float64(len(plats))

	// Work per request, computed from shapes: conv multiply-adds, and every
	// node's operands and result at their storage width.
	for _, n := range st.graph.OpNodes() {
		if conv, ok := n.Op.(*graph.ConvOp); ok {
			st.convGFLOP += conv.W.FLOPs() / 1e9
		}
		st.bytes += float64(n.OutShape.NumElements() * n.StorageDType().Size())
		for _, in := range n.Inputs {
			st.bytes += float64(in.OutShape.NumElements() * in.StorageDType().Size())
		}
	}
	return st, nil
}

// kindClass maps a profiler kind (operator kind, refined by conv kernel and
// dtype, e.g. conv2d/gemm@fp16) to the ops.* row it is reported under.
func kindClass(kind string) string {
	kind, _, _ = strings.Cut(kind, "@")
	switch kind {
	case "conv2d/gemm":
		return "conv_gemm"
	case "conv2d/direct", "conv2d":
		return "conv_direct"
	case "conv2d/depthwise":
		return "conv_depthwise"
	case "dense", "cast":
		return kind
	case "relu", "leaky_relu", "sigmoid", "add", "fused_elementwise":
		return "elementwise"
	case "pool2d", "global_avg_pool":
		return "pool"
	case "box_nms", "multibox_detection", "yolo_decode":
		return "vision"
	}
	return "other"
}

// classTotalsMs sums the profiler's per-node totals by ops.* row.
func classTotalsMs(p *obs.Profiler) map[string]float64 {
	out := map[string]float64{}
	for _, e := range p.Snapshot().Top {
		out[kindClass(e.Kind)] += e.TotalMs
	}
	return out
}

func cpuSeconds() (cpu float64, maxRSSKiB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), ru.Maxrss
}

// buildSpans turns the client call spans and the program's request traces
// into one tree per request: client > fleet > pool > batcher > session >
// node, with the wait for a pooled session as a pool.wait leaf.
func buildSpans(direct string, calls []harness.Span, traces []obs.RequestTrace, epoch time.Time) []harness.Span {
	spans := make([]harness.Span, 0, 2*len(calls))
	add := func(s harness.Span) harness.Span {
		s.ID = len(spans) + 1
		spans = append(spans, s)
		return s
	}
	// The client calls straight into the workload's serving layer, so that
	// layer's call span is the client span's interval.
	layer := make([]harness.Span, len(calls))
	for i, c := range calls {
		c = add(c)
		spans[c.ID-1].Req = c.ID
		layer[i] = add(harness.Span{Parent: c.ID, Req: c.ID, Layer: direct, Source: "call", Start: c.Start, End: c.End})
	}
	for _, tr := range traces {
		start := int64(tr.Start.Sub(epoch))
		end := start + int64(tr.Wall)
		top := harness.Enclosing(layer, start, end)
		if top == nil {
			continue // a request of the warm-up still finishing
		}
		at := *top
		sub := func(layer, source string, lo, hi int64) harness.Span {
			return add(harness.Span{Parent: at.ID, Req: at.Req, Layer: layer, Source: source, Start: lo, End: hi})
		}
		if direct == "fleet" {
			at = sub("pool", "telemetry", start, end)
		}
		if tr.BatchSize > 0 {
			at = sub("batcher", "telemetry", start, end)
		}
		if wait := int64(tr.Admission + tr.Queue); wait > 0 && direct != "session" {
			sub("pool.wait", "telemetry", start, start+wait)
		}
		if len(tr.Nodes) == 0 {
			continue // rode a batched execution: its nodes are only in the profiler
		}
		if direct != "session" {
			lo, hi := int64(tr.Nodes[0].Start.Sub(epoch)), int64(0)
			for _, n := range tr.Nodes {
				s := int64(n.Start.Sub(epoch))
				lo, hi = min(lo, s), max(hi, s+int64(n.Dur))
			}
			at = sub("session", "derived", lo, hi)
		}
		for _, n := range tr.Nodes {
			s := int64(n.Start.Sub(epoch))
			node := sub("node", "telemetry", s, s+int64(n.Dur))
			spans[node.ID-1].Name = n.Name + " " + n.Kind
		}
	}
	return spans
}

// runTraced produces the per-layer metrics of one workload.
func runTraced(w *workload, cfg config) (*report, error) {
	inputs, chk, err := w.checker(cfg)
	if err != nil {
		return nil, err
	}

	probe := newHostProbe()

	// Untraced baseline, set up exactly as the measured run is.
	base, err := w.setUp(inputs[0], false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	drive(base, w.clients, inputs, chk, seconds(cfg.warmup), nil, probe)
	baseWin := drive(base, w.clients, inputs, chk, seconds(cfg.seconds*baselineShare), nil, probe)
	base.close()
	if len(baseWin.latMs) == 0 {
		return nil, fmt.Errorf("no correct response in the baseline window: %v", baseWin.firstErr)
	}

	// Serving layers read these two defaults when they are constructed.
	tracker := obs.NewRequestTracker(obs.RequestTrackerOptions{SampleEvery: 1, Keep: 1 << 16})
	profiler := obs.NewProfiler(obs.ProfilerOptions{SampleEvery: 1, TopK: 1 << 20, Window: time.Hour})
	oldTracker, oldProfiler := obs.DefaultRequests, obs.DefaultProfiler
	obs.DefaultRequests, obs.DefaultProfiler = tracker, profiler
	defer func() { obs.DefaultRequests, obs.DefaultProfiler = oldTracker, oldProfiler }()

	trials0, hits0 := counter("tune.trials"), counter("tune.db_hits")
	s, err := w.setUp(inputs[0], true)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer s.close()
	trials, hits := counter("tune.trials")-trials0, counter("tune.db_hits")-hits0
	drive(s, w.clients, inputs, chk, seconds(cfg.warmup), nil, probe)

	label := w.model // the pool's metric label; fleets suffix the replica
	linger := obs.DefaultRegistry.Histogram("batch.linger_wait_ns")
	batchSize := obs.DefaultRegistry.Histogram("batch.size." + label)
	windowCounters := []string{"admission.shed", "fleet.failover", "fault.retries", "fault.cpu_reexec",
		"batch.formed." + label, "batch.degraded." + label}
	c0 := map[string]float64{}
	for _, n := range windowCounters {
		c0[n] = counter(n)
	}
	linger0, lingerN0 := linger.Sum(), linger.Count()
	size0, sizeN0 := batchSize.Sum(), batchSize.Count()
	served0 := make([]int64, len(s.models))
	if s.fleet != nil {
		for i := range served0 {
			served0[i] = s.fleet.Served(i)
		}
	}
	deadline0 := obs.DefaultSLO.Stats(w.model).Deadline
	class0 := classTotalsMs(profiler)
	var mem0, mem1 goruntime.MemStats
	goruntime.ReadMemStats(&mem0)

	epoch := time.Now()
	win := drive(s, w.clients, inputs, chk, seconds(cfg.seconds*(1-baselineShare)), &epoch, probe)

	_, maxRSS := cpuSeconds()
	goruntime.ReadMemStats(&mem1)
	class1 := classTotalsMs(profiler)
	delta := func(n string) float64 { return counter(n) - c0[n] }

	r := newReport(w, cfg, 1, win)
	r.Tracing = fmt.Sprintf("traced window: client call spans on, obs.RequestTracker and obs.Profiler at every request; %.0f%% of the window ran untraced first as the overhead baseline (as timed: p50 %.3f ms with the host %.3f times slower than the reference)",
		100*baselineShare, harness.Median(baseWin.latMs), slowdown(baseWin.allProbeMs()))
	if len(win.latMs) == 0 {
		return r, fmt.Errorf("no correct response in the traced window: %v", win.firstErr)
	}
	reqs := float64(win.attempted)

	// Compile pipeline and compiler decisions.
	st, err := w.replayCompile()
	if err != nil {
		return nil, fmt.Errorf("compile replay: %w", err)
	}
	r.set("engine.compile_ms", float64(s.compileNs)/1e6)
	r.set("models.build_ms", st.buildMs)
	r.set("graph.optimize_ms", st.optimizeMs)
	r.set("graph.select_ms", st.selectMs)
	r.set("graphtuner.tune_ms", st.tuneMs)
	r.set("runtime.plan.build_ms", st.planMs)
	r.set("autotvm.tune_trials", trials)
	r.set("autotvm.db_hits", hits)
	r.set("graph.nodes_after", st.nodesAfter)
	r.set("graph.nodes_fused", st.nodesFused)
	perModel := func(f func(*unigpu.CompiledModel) float64) float64 { return mean(s.models, f) }
	if w.dtype == "" {
		r.na("graph.quantize_ms", "graph.casts_inserted", "graph.casts_fused", "graph.quantize.max_rel_err")
	} else {
		r.set("graph.quantize_ms", st.quantizeMs)
		r.set("graph.casts_inserted", perModel(func(cm *unigpu.CompiledModel) float64 { return float64(cm.Quant.CastsInserted) }))
		r.set("graph.casts_fused", perModel(func(cm *unigpu.CompiledModel) float64 { return float64(cm.Quant.CastsFused) }))
		r.set("graph.quantize.max_rel_err", win.maxRelErr)
	}
	for _, k := range []string{"gemm", "direct", "depthwise", "winograd"} {
		r.set("graph.kernels."+k, perModel(func(cm *unigpu.CompiledModel) float64 { return float64(cm.ConvKernels[k]) }))
	}

	// Simulated clock and the plan.
	r.set("sim.conv_ms", perModel(func(cm *unigpu.CompiledModel) float64 { return cm.ConvKernelMs }))
	r.set("sim.transform_ms", perModel(func(cm *unigpu.CompiledModel) float64 { return cm.TransformMs }))
	r.set("sim.conv_rank_corr", convRankCorr(st.graph, st.device))
	perPlan := func(f func(runtime.PlanInfo) float64) float64 {
		return mean(s.plans, func(p *runtime.Plan) float64 { return f(p.Info()) })
	}
	r.set("runtime.plan.gpu_nodes", perPlan(func(i runtime.PlanInfo) float64 { return float64(i.GPUNodes) }))
	r.set("runtime.plan.cpu_nodes", perPlan(func(i runtime.PlanInfo) float64 { return float64(i.CPUNodes) }))
	r.set("runtime.plan.copies", perModel(func(cm *unigpu.CompiledModel) float64 { return float64(cm.CopiesInserted) }))
	r.set("runtime.plan.intermediate_kib", perPlan(func(i runtime.PlanInfo) float64 { return float64(i.IntermediateBytes) / 1024 }))
	r.set("tensor.arena_reused_kib_per_req", perPlan(func(i runtime.PlanInfo) float64 {
		return float64(i.IntermediateBytes-i.ArenaBytes) / 1024
	}))

	// Host clock per node kind, from the profiler's totals over the window.
	perReq := func(class string) float64 { return (class1[class] - class0[class]) / reqs }
	for _, class := range []string{"conv_gemm", "conv_direct", "conv_depthwise", "dense", "cast", "elementwise", "pool", "other"} {
		r.set("ops."+class+".ms_per_req", perReq(class))
	}
	convMs := perReq("conv_gemm") + perReq("conv_direct") + perReq("conv_depthwise")
	r.set("ops.conv.gflop_per_req", st.convGFLOP)
	r.set("ops.conv.gflops", st.convGFLOP/(convMs/1e3))
	r.set("ops.bytes_per_req", st.bytes)
	r.set("host.peak_gflops", hostPeakGFLOPS(300*time.Millisecond))
	r.set("host.copy_gbs", hostCopyGBs(300*time.Millisecond))
	r.set("host.slowdown", r.Host.Slowdown)
	if s.models[0].VisionMs == 0 {
		r.na("sim.vision_ms", "vision.ms_per_req")
	} else {
		r.set("sim.vision_ms", perModel(func(cm *unigpu.CompiledModel) float64 { return cm.VisionMs }))
		r.set("vision.ms_per_req", perReq("vision"))
	}

	// Serving layers, from the span tree.
	var traces []obs.RequestTrace
	for _, tr := range tracker.Snapshot() {
		if !tr.Start.Before(epoch) {
			traces = append(traces, tr)
		}
	}
	spans := buildSpans(s.direct, win.calls, traces, epoch)
	layers := harness.ByLayer(spans)
	selfUs := func(layer string) float64 { return float64(layers[layer].SelfNs) / float64(layers[layer].Count) / 1e3 }
	if layers["session"].Count == 0 {
		r.na("runtime.session.self_us") // every request rode a batched execution
	} else {
		r.set("runtime.session.self_us", selfUs("session"))
	}
	r.set("runtime.session.retries", delta("fault.retries"))
	r.set("runtime.session.cpu_reexec", delta("fault.cpu_reexec"))
	if layers["pool"].Count == 0 {
		r.na("runtime.pool.self_us", "runtime.pool.wait_us", "runtime.pool.shed", "runtime.pool.deadline")
	} else {
		r.set("runtime.pool.self_us", selfUs("pool"))
		r.set("runtime.pool.wait_us", float64(layers["pool.wait"].DurNs)/float64(layers["pool"].Count)/1e3)
		r.set("runtime.pool.shed", delta("admission.shed"))
		r.set("runtime.pool.deadline", float64(obs.DefaultSLO.Stats(w.model).Deadline-deadline0))
	}
	if layers["batcher"].Count == 0 {
		r.na("runtime.batcher.self_us", "runtime.batcher.wait_us", "runtime.batcher.batch_size_mean",
			"runtime.batcher.batches_formed", "runtime.batcher.degraded")
	} else {
		var copyNs time.Duration
		for _, tr := range traces {
			copyNs += tr.Gather + tr.Scatter
		}
		r.set("runtime.batcher.self_us", float64(copyNs)/float64(layers["batcher"].Count)/1e3)
		r.set("runtime.batcher.wait_us", (linger.Sum()-linger0)/float64(linger.Count()-lingerN0)/1e3)
		r.set("runtime.batcher.batch_size_mean", (batchSize.Sum()-size0)/float64(batchSize.Count()-sizeN0))
		r.set("runtime.batcher.batches_formed", delta("batch.formed."+label))
		r.set("runtime.batcher.degraded", delta("batch.degraded."+label))
	}
	if s.fleet == nil {
		r.na("runtime.fleet.self_us", "runtime.fleet.served_share_max", "runtime.fleet.failovers")
	} else {
		var most, total int64
		for i := range served0 {
			n := s.fleet.Served(i) - served0[i]
			most, total = max(most, n), total+n
		}
		r.set("runtime.fleet.self_us", selfUs("fleet"))
		r.set("runtime.fleet.served_share_max", float64(most)/float64(total))
		r.set("runtime.fleet.failovers", delta("fleet.failover"))
	}

	// The client's view of the traced window.
	r.set("obs.overhead_pct", 100*(win.p50Ms()/baseWin.p50Ms()-1))
	r.set("client.samples", float64(len(win.latMs)))
	r.set("client.latency_p90_ms", harness.Percentile(win.latMs, 0.90))
	r.set("client.latency_p95_ms", harness.Percentile(win.latMs, 0.95))
	r.set("client.latency_p99_ms", harness.Percentile(win.latMs, 0.99))
	r.set("client.latency_max_ms", harness.Percentile(win.latMs, 1))
	r.set("client.cpu_s_per_req", win.cpuS/reqs)
	r.set("client.cpu_util", win.cpuS/(win.elapsedS()*float64(goruntime.NumCPU())))
	r.set("client.go_alloc_kib_per_req", float64(win.allocBytes)/reqs/1024)
	r.set("client.gc_cycles", float64(mem1.NumGC-mem0.NumGC))
	r.set("client.peak_rss_mib", float64(maxRSS)/1024)

	r.TraceFile = filepath.Join(cfg.outDir, w.name+".trace.json")
	err = harness.WriteJSON(r.TraceFile, map[string]any{
		"workload": w.name, "seed": cfg.seed, "clients": w.clients,
		"epoch_unix_ns": epoch.UnixNano(), "requests": len(win.calls), "spans": spans,
	})
	return r, err
}
