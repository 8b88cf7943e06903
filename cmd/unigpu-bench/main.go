// Command unigpu-bench regenerates the paper's tables and figures,
// benchmarks the pooled serving runtime (-streams), and soaks the
// fault-tolerance machinery (-faults).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unigpu"
	"unigpu/internal/autotvm"
	"unigpu/internal/bench"
	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/obs"
	"unigpu/internal/ops"
	"unigpu/internal/runtime"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

func main() {
	log.SetFlags(0)
	// Ctrl-C cancels the current phase (in-flight requests abort between
	// node dispatches; tables stop between models).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	table := flag.String("table", "all", "which artifact to regenerate: 1,2,3,4,5,fallback,figure2,figure3,irsize,experiments,kernels,fusion,dtype,all")
	dtype := flag.String("dtype", "fp32", "storage/compute precision for serving mode: fp32 | fp16 | int8 | auto")
	jsonPath := flag.String("json", "", "also write Tables 1-3 results as machine-readable JSON to this file")
	dbPath := flag.String("db", "", "tuning-records database path (warm DB skips the schedule searches)")
	jobs := flag.Int("jobs", 0, "parallel tuning workers (0 = GOMAXPROCS)")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	metrics := flag.Bool("metrics", false, "print the metrics dump after the run")
	streams := flag.Int("streams", 0, "serving mode: N concurrent clients, each with its own session over one shared plan (0 = off)")
	batchSz := flag.Int("batch", 0, "serving mode: coalesce concurrent client requests into batches of up to N, executed on a plan compiled for that batch size (with -streams; 0 = off)")
	linger := flag.Duration("linger", 2*time.Millisecond, "serving mode: max time the batcher holds a request waiting for companions (with -batch)")
	model := flag.String("model", "SqueezeNet1.0", "serving mode: model to serve")
	size := flag.Int("size", 64, "serving mode: square input size")
	requests := flag.Int("requests", 32, "serving mode: requests per client")
	fleetMode := flag.Bool("fleet", false, "fleet serving soak: serve -model across the three paper platforms with latency-predictive routing and breaker-aware failover; with -fleet-kill >= 0, lose that device a third of the way in and (with -fleet-heal) heal it at two thirds; prints the per-device QPS/p99 table and the per-phase healthy/lost/heal-ramp summary")
	fleetKill := flag.Int("fleet-kill", 0, "fleet: replica index to kill mid-run (-1 = never kill)")
	fleetHeal := flag.Bool("fleet-heal", true, "fleet: heal the killed replica at two thirds of the run (scripted HealNow)")
	faults := flag.Bool("faults", false, "fault-injection soak: with -streams, serve through a SessionPool with seeded random faults and print degraded-mode QPS/p99; alone, print the healthy-vs-quarantined latency table per zoo model")
	faultRate := flag.Float64("fault-rate", 0.2, "faults: per-dispatch injection probability")
	faultSeed := flag.Int64("fault-seed", 1, "faults: injector RNG seed")
	faultHang := flag.Duration("fault-hang", 200*time.Microsecond, "faults: injected queue-hang stall")
	profile := flag.Bool("profile", false, "print the continuous profiler's rolling top-K table after the run (pool serving samples by default; this also attaches the profiler to pool-less -streams sessions)")
	listen := flag.String("listen", "", "serve live telemetry on this address for the run's duration: /metrics (Prometheus), /healthz, /debug/plans, /debug/requests, /debug/profile")
	flag.Parse()

	if *trace != "" || *metrics {
		obs.Enable()
	}
	if *listen != "" {
		srv, err := unigpu.ServeTelemetry(*listen)
		if err != nil {
			log.Fatalf("telemetry listen: %v", err)
		}
		defer srv.Close()
		log.Printf("telemetry on http://%s/metrics", srv.Addr())
	}
	if *fleetMode {
		clients := *streams
		if clients <= 0 {
			clients = 6
		}
		fleetServe(ctx, *model, *size, *dtype, clients, *requests, *fleetKill, *fleetHeal, *jsonPath)
		if *metrics {
			fmt.Print(obs.DumpMetrics())
		}
		return
	}
	if *faults && *streams == 0 {
		faultsTable(ctx)
		if *metrics {
			fmt.Print(obs.DumpMetrics())
		}
		return
	}
	if *streams > 0 {
		var cfg *sim.FaultConfig
		if *faults {
			cfg = &sim.FaultConfig{Seed: *faultSeed, Rate: *faultRate, HangLatency: *faultHang}
		}
		serve(ctx, *model, *size, *dtype, *streams, *requests, *batchSz, *linger, cfg, *profile, *jsonPath)
		if *metrics {
			fmt.Print(obs.DumpMetrics())
		}
		if *trace != "" {
			if err := obs.WriteChromeTraceFile(*trace); err != nil {
				log.Fatalf("write trace: %v", err)
			}
			log.Printf("trace written to %s (%d spans)", *trace, len(obs.Records()))
		}
		return
	}
	e := bench.NewEstimator()
	e.Jobs = *jobs
	if *dbPath != "" {
		db, err := autotvm.OpenDB(*dbPath)
		if err != nil {
			log.Fatalf("open db: %v", err)
		}
		e.DB = db
		defer func() {
			if err := db.Save(); err != nil {
				log.Fatalf("save db: %v", err)
			}
			log.Printf("tuning database %s holds %d records", *dbPath, db.Len())
		}()
	}
	defer func() {
		if *jsonPath != "" {
			if err := bench.WritePerfJSONFile(*jsonPath, e.PerfRecords()); err != nil {
				log.Fatalf("write json: %v", err)
			}
			log.Printf("perf records written to %s", *jsonPath)
		}
		if *trace != "" {
			if err := obs.WriteChromeTraceFile(*trace); err != nil {
				log.Fatalf("write trace: %v", err)
			}
			log.Printf("trace written to %s (%d spans)", *trace, len(obs.Records()))
		}
		if *metrics {
			fmt.Print(obs.DumpMetrics())
		}
	}()
	switch *table {
	case "experiments":
		fmt.Print(e.ExperimentsReport())
		return
	case "figure2":
		fmt.Print(bench.Figure2Demo())
		return
	case "figure3":
		fmt.Print(bench.Figure3Demo())
		return
	case "irsize":
		irL, cuL, clL := bench.IRSizeExperiment()
		fmt.Printf("vision pipeline in unified IR: %d lines -> %d CUDA + %d OpenCL lines\n", irL, cuL, clL)
		return
	case "kernels":
		kernelsTable()
		return
	case "fusion":
		fusionTable()
		return
	case "dtype":
		dtypeTable()
		return
	}
	switch *table {
	case "1", "2", "3":
		n := int((*table)[0] - '0')
		fmt.Print(e.OverallTable(n).Format())
	case "4":
		fmt.Print(bench.FormatAblation("Table 4: vision-specific operator optimizations", e.VisionAblation()))
	case "5":
		fmt.Print(bench.FormatAblation("Table 5: tuning-based conv optimizations", e.TuningAblation()))
	case "fallback":
		r := e.FallbackExperiment()
		fmt.Printf("all-GPU %.2f ms, NMS fallback %.2f ms, overhead %.2f%%\n", r.AllGPUMs, r.FallbackMs, r.OverheadPct)
	default:
		for n := 1; n <= 3; n++ {
			fmt.Print(e.OverallTable(n).Format())
			fmt.Println()
		}
		fmt.Print(bench.FormatAblation("Table 4", e.VisionAblation()))
		fmt.Println()
		fmt.Print(bench.FormatAblation("Table 5", e.TuningAblation()))
		r := e.FallbackExperiment()
		fmt.Printf("\nFallback: all-GPU %.2f ms, fallback %.2f ms, overhead %.2f%%\n", r.AllGPUMs, r.FallbackMs, r.OverheadPct)
	}
}

// kernelsTable measures real wall-clock inference per zoo model with every
// convolution forced to the direct kernel versus the cost-model selection
// (GEMM/depthwise/direct, every one bit-identical to direct),
// and prints the selection breakdown. This is the source of the
// EXPERIMENTS.md "Convolution kernel selection" table. Inputs are shrunk
// from the paper sizes so the table regenerates in seconds on a laptop.
func kernelsTable() {
	sizes := []struct {
		name string
		size int
	}{
		{"ResNet50_v1", 96}, {"MobileNet1.0", 96}, {"SqueezeNet1.0", 96},
		{"SSD_MobileNet1.0", 128}, {"SSD_ResNet50", 128}, {"Yolov3", 96},
	}
	run := func(g *modelPlanInput) float64 {
		plan, err := runtime.NewPlan(g.graph)
		if err != nil {
			log.Fatalf("plan: %v", err)
		}
		s := plan.NewSession()
		if _, err := s.Run(g.feeds); err != nil { // warm-up
			log.Fatalf("run: %v", err)
		}
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := s.Run(g.feeds); err != nil {
				log.Fatalf("run: %v", err)
			}
			if ms := float64(time.Since(t0).Microseconds()) / 1e3; rep == 0 || ms < best {
				best = ms
			}
		}
		return best
	}
	fmt.Println("Convolution kernel selection: direct-only vs selected (wall clock)")
	fmt.Printf("%-18s %6s %12s %12s %8s  %s\n", "model", "size", "direct ms", "selected ms", "speedup", "selection")
	for _, mc := range sizes {
		direct := buildModelPlanInput(mc.name, mc.size)
		graph.ForceConvKernel(direct.graph, ops.KernelDirect)
		directMs := run(direct)

		selected := buildModelPlanInput(mc.name, mc.size)
		counts := graph.SelectConvKernels(selected.graph, graph.KernelSelection{Device: sim.IntelHD505})
		selectedMs := run(selected)

		parts := make([]string, 0, len(counts))
		for _, k := range ops.ConvKernels {
			if counts[k] > 0 {
				parts = append(parts, fmt.Sprintf("%s:%d", k, counts[k]))
			}
		}
		fmt.Printf("%-18s %6d %12.2f %12.2f %7.2fx  %s\n",
			mc.name, mc.size, directMs, selectedMs, directMs/selectedMs, strings.Join(parts, " "))
	}
}

// fusionTable compares each zoo model before and after the generalized
// fusion passes: the "unfused" column runs only the pre-fusion pipeline
// (batch-norm folding, single-activation fusion, constant pre-computation),
// the "fused" column the full Optimize pipeline with residual-epilogue and
// elementwise-chain fusion. Reported per model: schedule node count, arena
// bytes, and best-of-3 wall clock. This is the source of the EXPERIMENTS.md
// "Graph-level operator fusion" table.
func fusionTable() {
	sizes := []struct {
		name string
		size int
	}{
		{"ResNet50_v1", 96}, {"MobileNet1.0", 96}, {"SqueezeNet1.0", 96},
		{"SSD_MobileNet1.0", 128}, {"SSD_ResNet50", 128}, {"Yolov3", 96},
	}
	build := func(name string, size int, fused bool) *modelPlanInput {
		m := models.Build(name, size, false)
		if fused {
			graph.Optimize(m.Graph)
		} else {
			graph.FoldBatchNorm(m.Graph)
			graph.FuseActivations(m.Graph)
			graph.PrecomputeConstants(m.Graph)
			m.Graph.EliminateDead()
		}
		feed := tensor.New(1, 3, size, size)
		feed.FillRandom(7)
		return &modelPlanInput{graph: m.Graph, feeds: map[string]*tensor.Tensor{"data": feed}}
	}
	measure := func(in *modelPlanInput) (nodes, arena, inter int, ms float64) {
		plan, err := runtime.NewPlan(in.graph)
		if err != nil {
			log.Fatalf("plan: %v", err)
		}
		s := plan.NewSession()
		if _, err := s.Run(in.feeds); err != nil { // warm-up
			log.Fatalf("run: %v", err)
		}
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := s.Run(in.feeds); err != nil {
				log.Fatalf("run: %v", err)
			}
			if v := float64(time.Since(t0).Microseconds()) / 1e3; rep == 0 || v < best {
				best = v
			}
		}
		return plan.NumNodes(), plan.ArenaBytes(), plan.IntermediateBytes(), best
	}
	fmt.Println("Graph-level operator fusion: pre-fusion pipeline vs full Optimize")
	fmt.Printf("%-18s %6s %8s %8s %6s %10s %10s %10s %10s %9s %9s %8s\n",
		"model", "size", "nodes", "fused", "drop",
		"arena KiB", "fused KiB", "inter KiB", "fused KiB", "wall ms", "fused ms", "speedup")
	for _, mc := range sizes {
		n0, a0, i0, t0 := measure(build(mc.name, mc.size, false))
		n1, a1, i1, t1 := measure(build(mc.name, mc.size, true))
		fmt.Printf("%-18s %6d %8d %8d %5.1f%% %10d %10d %10d %10d %9.2f %9.2f %7.2fx\n",
			mc.name, mc.size, n0, n1, 100*float64(n0-n1)/float64(n0),
			a0/1024, a1/1024, i0/1024, i1/1024, t0, t1, t0/t1)
	}
}

// dtypeTable compares each zoo model compiled at fp32 / fp16 / int8 / auto:
// simulated latency, wall clock (best of 3), arena and intermediate bytes at
// per-slot element width, and the output error against the fp32 reference.
// Classification outputs compare elementwise (relative to the reference's
// max magnitude); detection outputs compare the sorted score column, which
// is stable under the box-coordinate blowups random-weight decode produces.
// This is the source of the EXPERIMENTS.md "Mixed precision" table.
func dtypeTable() {
	sizes := []struct {
		name string
		size int
	}{
		{"ResNet50_v1", 96}, {"MobileNet1.0", 96}, {"SqueezeNet1.0", 96},
		{"SSD_MobileNet1.0", 128}, {"SSD_ResNet50", 128}, {"Yolov3", 96},
	}
	fmt.Println("Mixed precision & quantization: per-dtype compile of the zoo (DeepLens, untuned schedules)")
	fmt.Printf("%-18s %-5s %9s %9s %10s %10s %7s %6s %12s\n",
		"model", "dtype", "sim ms", "wall ms", "arena KiB", "inter KiB", "casts", "fused", "max rel err")
	for _, mc := range sizes {
		var ref *tensor.Tensor
		for _, dt := range []string{"fp32", "fp16", "int8", "auto"} {
			eng := unigpu.NewEngine()
			cm, err := eng.Compile(mc.name, unigpu.DeepLens,
				unigpu.CompileOptions{InputSize: mc.size, SkipTuning: true, DType: dt})
			if err != nil {
				log.Fatalf("compile %s %s: %v", mc.name, dt, err)
			}
			plan, err := cm.Plan()
			if err != nil {
				log.Fatalf("plan %s %s: %v", mc.name, dt, err)
			}
			sess, err := cm.NewSession()
			if err != nil {
				log.Fatalf("session %s %s: %v", mc.name, dt, err)
			}
			in := tensor.New(1, 3, mc.size, mc.size)
			in.FillRandom(42)
			out, err := sess.Run(in) // warm-up
			if err != nil {
				log.Fatalf("run %s %s: %v", mc.name, dt, err)
			}
			best := 0.0
			for rep := 0; rep < 3; rep++ {
				t0 := time.Now()
				if out, err = sess.Run(in); err != nil {
					log.Fatalf("run %s %s: %v", mc.name, dt, err)
				}
				if v := float64(time.Since(t0).Microseconds()) / 1e3; rep == 0 || v < best {
					best = v
				}
			}
			relErr := 0.0
			if dt == "fp32" {
				ref = out.Clone()
			} else {
				relErr = outputRelErr(ref, out)
			}
			fmt.Printf("%-18s %-5s %9.2f %9.2f %10d %10d %7d %6d %12.2e\n",
				mc.name, dt, cm.PredictedLatencyMs, best,
				plan.ArenaBytes()/1024, plan.IntermediateBytes()/1024,
				cm.Quant.CastsInserted, cm.Quant.CastsFused, relErr)
		}
	}
}

// outputRelErr is the tolerance-harness error metric: elementwise max
// |got-ref| normalized by the reference's max finite magnitude; rank-3
// detection tensors compare the descending score column instead (box
// coordinates are chaotic under random weights — see EXPERIMENTS.md).
func outputRelErr(ref, got *tensor.Tensor) float64 {
	if ref.Rank() == 3 {
		return scoreColRelErr(ref, got)
	}
	scale, worst := 0.0, 0.0
	n := ref.Size()
	for i := 0; i < n; i++ {
		if v := math.Abs(float64(ref.GetF(i))); !math.IsInf(v, 0) && !math.IsNaN(v) && v > scale {
			scale = v
		}
	}
	if scale == 0 {
		scale = 1
	}
	for i := 0; i < n; i++ {
		r, g := float64(ref.GetF(i)), float64(got.GetF(i))
		if math.IsInf(r, 0) || math.IsNaN(r) || math.IsInf(g, 0) || math.IsNaN(g) {
			continue
		}
		if d := math.Abs(g-r) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// scoreColRelErr compares detection outputs on the sorted confidence
// column only (rows are [class score x1 y1 x2 y2], already score-ordered).
func scoreColRelErr(ref, got *tensor.Tensor) float64 {
	rows := ref.Shape()[1]
	if g := got.Shape()[1]; g < rows {
		rows = g
	}
	worst := 0.0
	for i := 0; i < rows; i++ {
		r, g := float64(ref.At(0, i, 1)), float64(got.At(0, i, 1))
		if math.IsNaN(r) || math.IsNaN(g) {
			continue
		}
		if d := math.Abs(g - r); d > worst {
			worst = d
		}
	}
	return worst
}

// modelPlanInput pairs an optimized model graph with its input feeds.
type modelPlanInput struct {
	graph *graph.Graph
	feeds map[string]*tensor.Tensor
}

func buildModelPlanInput(name string, size int) *modelPlanInput {
	m := models.Build(name, size, false)
	graph.Optimize(m.Graph)
	feed := tensor.New(1, 3, size, size)
	feed.FillRandom(7)
	return &modelPlanInput{graph: m.Graph, feeds: map[string]*tensor.Tensor{"data": feed}}
}

// servingReport is the machine-readable result of one serving run
// (-streams with -json): throughput and latency, and — under fault
// injection — the degraded-mode counters, breaker state, rolling SLO
// stats and the profiler's top-K table.
type servingReport struct {
	Model         string                  `json:"model"`
	Size          int                     `json:"size"`
	Streams       int                     `json:"streams"`
	PlanNodes     int                     `json:"plan_nodes"`
	ArenaBytes    int                     `json:"arena_bytes"`
	Completed     int                     `json:"requests_completed"`
	WallMs        float64                 `json:"wall_ms"`
	QPS           float64                 `json:"qps"`
	P50Us         float64                 `json:"p50_us"`
	P99Us         float64                 `json:"p99_us"`
	Shed          int                     `json:"shed"`
	Batch         int                     `json:"batch,omitempty"`
	LingerUs      float64                 `json:"linger_us,omitempty"`
	BatchesFormed int64                   `json:"batches_formed,omitempty"`
	BatchesDegr   int64                   `json:"batches_degraded,omitempty"`
	MeanBatch     float64                 `json:"mean_batch,omitempty"`
	BatchP50      float64                 `json:"batch_p50,omitempty"`
	BatchP99      float64                 `json:"batch_p99,omitempty"`
	Faults        map[string]int64        `json:"faults,omitempty"`
	Retries       int64                   `json:"retries,omitempty"`
	CPUReexec     int64                   `json:"cpu_reexec,omitempty"`
	AdmissionShed int64                   `json:"admission_shed,omitempty"`
	Breaker       string                  `json:"breaker,omitempty"`
	SLO           []unigpu.SLOStats       `json:"slo,omitempty"`
	Profile       *unigpu.ProfileSnapshot `json:"profile,omitempty"`
}

// serve runs the concurrent-client throughput benchmark: one compiled
// plan, N clients issuing R back-to-back requests each. Without faults
// every client owns a pooled session; with a fault config the clients go
// through a SessionPool (admission control, shared circuit breaker) with
// seeded random faults injected into every GPU dispatch, and the report
// adds the degraded-mode counters plus the rolling SLO lines. Reports
// aggregate QPS and per-request p50/p99; jsonPath writes the full
// machine-readable servingReport.
func serve(ctx context.Context, model string, size int, dtype string, streams, requests, batch int, linger time.Duration, faultCfg *sim.FaultConfig, profile bool, jsonPath string) {
	eng := unigpu.NewEngine()
	cm, err := eng.Compile(model, unigpu.DeepLens, unigpu.CompileOptions{InputSize: size, SkipTuning: true, DType: dtype})
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	plan, err := cm.Plan()
	if err != nil {
		log.Fatalf("plan: %v", err)
	}
	log.Printf("serving %s size=%d: %d nodes, arena %d KiB (liveness peak %d KiB, %d KiB without reuse)",
		model, size, plan.NumNodes(), plan.ArenaBytes()/1024, plan.PeakLiveBytes()/1024, plan.IntermediateBytes()/1024)

	var opts unigpu.SessionOptions
	if profile {
		// Pool serving attaches the default profiler automatically; attach
		// it to pool-less per-client sessions too so -profile has data.
		opts.Profiler = obs.DefaultProfiler
	}
	var pool *unigpu.SessionPool
	var inj *sim.FaultInjector
	if faultCfg != nil || batch > 1 {
		if faultCfg != nil {
			inj = sim.NewFaultInjector(*faultCfg)
			opts.Faults = inj
		}
		poolSessions := (streams + 1) / 2 // undersized on purpose: exercises queueing
		poolOpts := unigpu.PoolOptions{
			Sessions: poolSessions, QueueDepth: streams, Session: opts,
		}
		if batch > 1 {
			poolOpts.Batch = &unigpu.BatchOptions{MaxBatch: batch, MaxLinger: linger, QueueDepth: 2 * streams}
		}
		pool, err = cm.NewSessionPool(poolOpts)
		if err != nil {
			log.Fatalf("pool: %v", err)
		}
		defer pool.Close()
		if batch > 1 {
			// Pre-compile every batch size the dispatcher can form, so
			// steady-state QPS excludes the one-time plan compiles.
			warm := make([]int, 0, batch-1)
			for n := 2; n <= batch; n++ {
				warm = append(warm, n)
			}
			t0 := time.Now()
			if err := pool.WarmBatches(warm...); err != nil {
				log.Fatalf("warm batch plans: %v", err)
			}
			log.Printf("batching: max batch %d, linger %v, %d batch plans compiled in %v",
				batch, linger, len(warm), time.Since(t0).Round(time.Millisecond))
		}
		if faultCfg != nil {
			log.Printf("fault soak: rate=%.2f seed=%d hang=%v, pool %d sessions, queue depth %d",
				faultCfg.Rate, faultCfg.Seed, faultCfg.HangLatency, poolSessions, streams)
		}
	}

	sessions := make([]*unigpu.Session, streams)
	inputs := make([]*unigpu.Tensor, streams)
	rng := rand.New(rand.NewSource(1))
	for i := range sessions {
		in := unigpu.NewTensor(cm.InputShape()...)
		d := in.Data()
		for j := range d {
			d[j] = rng.Float32()
		}
		inputs[i] = in
		if pool != nil {
			continue
		}
		if sessions[i], err = cm.NewSessionWith(opts); err != nil {
			log.Fatalf("session: %v", err)
		}
		if _, err := sessions[i].Run(in); err != nil { // warm-up
			log.Fatalf("warm-up run: %v", err)
		}
	}

	lat := make([][]time.Duration, streams)
	shed := make([]int, streams)
	var wg sync.WaitGroup
	wg.Add(streams)
	start := time.Now()
	for i := 0; i < streams; i++ {
		go func(i int) {
			defer wg.Done()
			lat[i] = make([]time.Duration, 0, requests)
			for r := 0; r < requests; r++ {
				if ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				if pool != nil {
					_, err = pool.Run(ctx, inputs[i])
				} else {
					_, err = sessions[i].RunContext(ctx, inputs[i])
				}
				switch {
				case err == nil:
					lat[i] = append(lat[i], time.Since(t0))
				case err == unigpu.ErrOverloaded:
					shed[i]++
				case ctx.Err() != nil:
					return
				default:
					log.Fatalf("client %d: %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	totalShed := 0
	for i, l := range lat {
		all = append(all, l...)
		totalShed += shed[i]
	}
	if len(all) == 0 {
		log.Fatal("no requests completed")
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	pct := func(p float64) time.Duration { return all[int(p*float64(len(all)-1))] }
	rep := servingReport{
		Model: model, Size: size, Streams: streams,
		PlanNodes: plan.NumNodes(), ArenaBytes: plan.ArenaBytes(),
		Completed: len(all), WallMs: float64(wall.Microseconds()) / 1e3,
		QPS:   float64(len(all)) / wall.Seconds(),
		P50Us: float64(pct(0.50).Nanoseconds()) / 1e3,
		P99Us: float64(pct(0.99).Nanoseconds()) / 1e3,
		Shed:  totalShed,
	}
	fmt.Printf("streams=%d: %d requests in %v\n",
		streams, len(all), wall.Round(time.Millisecond))
	fmt.Printf("  throughput %.1f req/s, latency p50 %v p99 %v\n",
		rep.QPS, pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
	if batch > 1 {
		reg := obs.DefaultRegistry
		h := reg.Histogram("batch.size." + model)
		rep.Batch = batch
		rep.LingerUs = float64(linger.Microseconds())
		rep.BatchesFormed = reg.Counter("batch.formed." + model).Value()
		rep.BatchesDegr = reg.Counter("batch.degraded." + model).Value()
		if n := h.Count(); n > 0 {
			rep.MeanBatch = h.Sum() / float64(n)
			rep.BatchP50 = h.Quantile(0.50)
			rep.BatchP99 = h.Quantile(0.99)
		}
		fmt.Printf("  batching: %d batches (mean size %.1f, p50 %.0f, p99 %.0f), %d degraded to per-request\n",
			rep.BatchesFormed, rep.MeanBatch, rep.BatchP50, rep.BatchP99, rep.BatchesDegr)
	}
	if inj != nil {
		reg := obs.DefaultRegistry
		rep.Faults = inj.Counts()
		rep.Retries = reg.Counter("fault.retries").Value()
		rep.CPUReexec = reg.Counter("fault.cpu_reexec").Value()
		rep.AdmissionShed = reg.Counter("admission.shed").Value()
		rep.Breaker = pool.Breaker().State().String()
		fmt.Printf("  degraded mode: %d faults injected", inj.Total())
		for _, k := range sim.AllFaultKinds {
			if n := inj.Injected(k); n > 0 {
				fmt.Printf(" %s=%d", k, n)
			}
		}
		fmt.Printf("\n  retries %d, cpu re-exec %d, shed %d, breaker %v\n",
			rep.Retries, rep.CPUReexec, totalShed, pool.Breaker().State())
		rep.SLO = unigpu.SLOReport()
		for _, line := range strings.Split(strings.TrimRight(obs.FormatSLO(rep.SLO), "\n"), "\n") {
			if line != "" {
				fmt.Println("  " + line)
			}
		}
	}
	if profile {
		snap := unigpu.Profile()
		rep.Profile = &snap
		fmt.Print(obs.FormatProfile(snap))
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("marshal serving report: %v", err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("write serving report: %v", err)
		}
		log.Printf("serving report written to %s", jsonPath)
	}
}

// faultsTable prints the healthy-vs-degraded wall-clock table per zoo
// model: the degraded column quarantines the GPU (scripted device loss
// opens the circuit breaker on the first node) so every GPU-placed node
// re-executes on the CPU lane with the same bit-identical kernels. This
// is the source of the EXPERIMENTS.md fault-tolerance table. Inputs are
// shrunk so the table regenerates in seconds.
func faultsTable(ctx context.Context) {
	sizes := []struct {
		name string
		size int
	}{
		{"ResNet50_v1", 96}, {"MobileNet1.0", 96}, {"SqueezeNet1.0", 96},
		{"SSD_MobileNet1.0", 128}, {"SSD_ResNet50", 128}, {"Yolov3", 96},
	}
	run := func(s *runtime.Session, feeds map[string]*tensor.Tensor) (float64, []*tensor.Tensor) {
		outs, err := s.Run(feeds) // warm-up (and, degraded, opens the breaker)
		if err != nil {
			log.Fatalf("run: %v", err)
		}
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if outs, err = s.Run(feeds); err != nil {
				log.Fatalf("run: %v", err)
			}
			if ms := float64(time.Since(t0).Microseconds()) / 1e3; rep == 0 || ms < best {
				best = ms
			}
		}
		return best, outs
	}
	fmt.Println("Fault tolerance: healthy vs degraded (GPU quarantined, CPU re-execution)")
	fmt.Printf("%-18s %6s %12s %14s %9s  %s\n", "model", "size", "healthy ms", "quarantined ms", "overhead", "bit-identical")
	for _, mc := range sizes {
		if ctx.Err() != nil {
			log.Print("interrupted")
			return
		}
		in := buildModelPlanInput(mc.name, mc.size)
		plan, err := runtime.NewPlan(in.graph)
		if err != nil {
			log.Fatalf("plan: %v", err)
		}
		healthyMs, healthyOut := run(plan.NewSession(), in.feeds)

		inj := sim.NewFaultInjector(sim.FaultConfig{}).Script(sim.FaultDeviceLost)
		br := runtime.NewBreaker(runtime.BreakerOptions{Threshold: 1, Probation: time.Hour})
		degradedMs, degradedOut := run(plan.NewSessionWith(runtime.SessionOptions{
			Faults: inj, Breaker: br, RetryBackoff: 10 * time.Microsecond,
		}), in.feeds)

		identical := len(healthyOut) == len(degradedOut)
		for k := 0; identical && k < len(healthyOut); k++ {
			h, d := healthyOut[k].Data(), degradedOut[k].Data()
			identical = len(h) == len(d)
			for j := 0; identical && j < len(h); j++ {
				identical = h[j] == d[j]
			}
		}
		fmt.Printf("%-18s %6d %12.2f %14.2f %8.1f%%  %v\n",
			mc.name, mc.size, healthyMs, degradedMs, 100*(degradedMs-healthyMs)/healthyMs, identical)
	}
}

type fleetPhaseReport struct {
	Phase     string  `json:"phase"`
	Completed int     `json:"requests_completed"`
	WallMs    float64 `json:"wall_ms"`
	QPS       float64 `json:"qps"`
	P50Us     float64 `json:"p50_us"`
	P99Us     float64 `json:"p99_us"`
}

type fleetReplicaReport struct {
	Name       string  `json:"name"`
	State      string  `json:"state"`
	Weight     float64 `json:"weight"`
	EstimateMs float64 `json:"estimate_ms"`
	Served     int64   `json:"served"`
	Share      float64 `json:"share"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	Breaker    string  `json:"breaker"`
	DeviceLost bool    `json:"device_lost"`
}

type fleetReport struct {
	Model        string               `json:"model"`
	Size         int                  `json:"size"`
	Clients      int                  `json:"clients"`
	Requests     int                  `json:"requests_per_client"`
	Completed    int                  `json:"requests_completed"`
	Failed       int                  `json:"requests_failed"`
	WallMs       float64              `json:"wall_ms"`
	QPS          float64              `json:"qps"`
	BitIdentity  bool                 `json:"bit_identical"`
	Killed       string               `json:"killed,omitempty"`
	Healed       bool                 `json:"healed,omitempty"`
	HealedServed int64                `json:"healed_served,omitempty"`
	Phases       []fleetPhaseReport   `json:"phases,omitempty"`
	Replicas     []fleetReplicaReport `json:"replicas"`
	Failovers    int64                `json:"failovers"`
	Quarantines  int64                `json:"quarantines"`
	Heals        int64                `json:"heals"`
	Probes       int64                `json:"probes"`
}

// fleetServe soaks the multi-device fleet: one model compiled once per
// paper platform, N clients routed by predicted latency x load x health
// weight. With a kill script (-fleet-kill >= 0) the victim's device is
// lost a third of the way through the run and -fleet-heal resets and
// re-ramps it at two thirds, so the report splits into healthy / one
// device lost / heal-ramp phases — the source of the EXPERIMENTS.md
// fleet table. Every output is compared against a single-device reference
// execution; any divergence fails the run.
func fleetServe(ctx context.Context, model string, size int, dtype string, clients, requests, killIdx int, doHeal bool, jsonPath string) {
	eng := unigpu.NewEngine()
	t0 := time.Now()
	fleet, err := eng.NewFleet(model, unigpu.CompileOptions{InputSize: size, SkipTuning: true, DType: dtype}, unigpu.FleetOptions{
		Sessions:   2,
		QueueDepth: 2 * clients,
		Heal:       unigpu.HealPolicy{ProbeAfter: -1}, // heals are scripted below
		// Deterministic oracle routing: placements reproduce run to run,
		// and the healed replica (cheapest oracle) demonstrably ramps back
		// into the serving mix instead of hiding behind converged EWMAs.
		Router: unigpu.RouterOptions{EWMAAlpha: -1},
	})
	if err != nil {
		log.Fatalf("fleet: %v", err)
	}
	defer fleet.Close()
	log.Printf("fleet: %s size=%d, %d replicas compiled in %v", model, size, fleet.Len(), time.Since(t0).Round(time.Millisecond))
	for i := 0; i < fleet.Len(); i++ {
		log.Printf("  %-20s oracle %.2f ms", fleet.Name(i), fleet.Model(i).PredictedLatencyMs)
	}
	if killIdx >= fleet.Len() {
		log.Fatalf("-fleet-kill %d: fleet has %d replicas", killIdx, fleet.Len())
	}

	in := unigpu.NewTensor(fleet.Model(0).InputShape()...)
	rng := rand.New(rand.NewSource(1))
	d := in.Data()
	for j := range d {
		d[j] = rng.Float32()
	}
	ref, err := fleet.Model(0).Run(in) // single-device reference execution
	if err != nil {
		log.Fatalf("reference run: %v", err)
	}
	identical := func(got *tensor.Tensor) bool {
		if got == nil || !got.Shape().Equal(ref.Shape()) {
			return false
		}
		rd, gd := ref.Data(), got.Data()
		for i := range rd {
			if math.Float32bits(rd[i]) != math.Float32bits(gd[i]) {
				return false
			}
		}
		return true
	}

	total := clients * requests
	killAt, healAt := int64(total/3), int64(2*total/3)
	phaseNames := []string{"healthy", "one device lost", "heal ramp"}
	var (
		seq, phase         atomic.Int64
		mismatch, failures atomic.Int64
		servedAtHeal       atomic.Int64
		killOnce, healOnce sync.Once
	)
	phaseStart := make([]time.Time, 3)
	type sample struct {
		phase int
		d     time.Duration
	}
	lat := make([][]sample, clients)

	var wg sync.WaitGroup
	wg.Add(clients)
	start := time.Now()
	phaseStart[0] = start
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			lat[c] = make([]sample, 0, requests)
			for r := 0; r < requests; r++ {
				if ctx.Err() != nil {
					return
				}
				n := seq.Add(1)
				if killIdx >= 0 && n >= killAt {
					killOnce.Do(func() {
						log.Printf("kill script: losing %s at request %d/%d", fleet.Name(killIdx), n, total)
						fleet.Kill(killIdx)
						phaseStart[1] = time.Now()
						phase.Store(1)
					})
				}
				if killIdx >= 0 && doHeal && n >= healAt {
					healOnce.Do(func() {
						for try := 0; try < 20; try++ {
							if fleet.HealNow(killIdx) {
								log.Printf("heal script: %s probed healthy at request %d/%d, ramping back in", fleet.Name(killIdx), n, total)
								servedAtHeal.Store(fleet.Served(killIdx))
								phaseStart[2] = time.Now()
								phase.Store(2)
								return
							}
							time.Sleep(5 * time.Millisecond)
						}
						log.Printf("heal script: %s did not recover after 20 probes", fleet.Name(killIdx))
					})
				}
				p := int(phase.Load())
				rt0 := time.Now()
				out, err := fleet.Run(ctx, in)
				switch {
				case err == nil:
					lat[c] = append(lat[c], sample{p, time.Since(rt0)})
					if !identical(out) {
						mismatch.Add(1)
					}
				case ctx.Err() != nil:
					return
				default:
					failures.Add(1)
					log.Printf("client %d: %v", c, err)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	byPhase := make([][]time.Duration, 3)
	for _, l := range lat {
		for _, s := range l {
			all = append(all, s.d)
			byPhase[s.phase] = append(byPhase[s.phase], s.d)
		}
	}
	if len(all) == 0 {
		log.Fatal("no requests completed")
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	pctOf := func(ds []time.Duration, p float64) time.Duration {
		return ds[int(p*float64(len(ds)-1))]
	}

	rep := fleetReport{
		Model: model, Size: size, Clients: clients, Requests: requests,
		Completed: len(all), Failed: int(failures.Load()),
		WallMs:      float64(wall.Microseconds()) / 1e3,
		QPS:         float64(len(all)) / wall.Seconds(),
		BitIdentity: mismatch.Load() == 0,
	}
	if killIdx >= 0 {
		rep.Killed = fleet.Name(killIdx)
		rep.Healed = doHeal && fleet.State(killIdx) != unigpu.ReplicaQuarantined
		if rep.Healed {
			rep.HealedServed = fleet.Served(killIdx) - servedAtHeal.Load()
		}
	}
	fmt.Printf("fleet: %d clients x %d requests: %d completed, %d failed in %v (%.1f req/s overall)\n",
		clients, requests, rep.Completed, rep.Failed, wall.Round(time.Millisecond), rep.QPS)
	fmt.Printf("  bit-identical to single-device reference: %v (%d requests checked)\n",
		rep.BitIdentity, rep.Completed)

	if killIdx >= 0 {
		fmt.Printf("\n  %-16s %9s %9s %12s %12s\n", "phase", "requests", "qps", "p50", "p99")
		ends := []time.Time{phaseStart[1], phaseStart[2], start.Add(wall)}
		for p, ds := range byPhase {
			if len(ds) == 0 || phaseStart[p].IsZero() {
				continue
			}
			end := ends[p]
			if end.IsZero() {
				end = start.Add(wall)
			}
			pw := end.Sub(phaseStart[p])
			sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
			pr := fleetPhaseReport{
				Phase: phaseNames[p], Completed: len(ds),
				WallMs: float64(pw.Microseconds()) / 1e3,
				QPS:    float64(len(ds)) / pw.Seconds(),
				P50Us:  float64(pctOf(ds, 0.50).Nanoseconds()) / 1e3,
				P99Us:  float64(pctOf(ds, 0.99).Nanoseconds()) / 1e3,
			}
			rep.Phases = append(rep.Phases, pr)
			fmt.Printf("  %-16s %9d %9.1f %12v %12v\n", pr.Phase, pr.Completed, pr.QPS,
				pctOf(ds, 0.50).Round(time.Microsecond), pctOf(ds, 0.99).Round(time.Microsecond))
		}
	}

	fmt.Printf("\n  %-20s %-12s %6s %9s %8s %7s %10s %10s %-9s\n",
		"replica", "state", "weight", "est ms", "served", "share", "p50 ms", "p99 ms", "breaker")
	for _, st := range fleet.Stats() {
		rr := fleetReplicaReport{
			Name: st.Name, State: st.State.String(), Weight: st.Weight,
			EstimateMs: st.EstimateMs, Served: st.Served,
			Share: 100 * float64(st.Served) / float64(len(all)),
			P50Ms: st.P50Ms, P99Ms: st.P99Ms,
			Breaker: st.Breaker.String(), DeviceLost: st.DeviceLost,
		}
		rep.Replicas = append(rep.Replicas, rr)
		lost := ""
		if st.DeviceLost {
			lost = " (device lost)"
		}
		fmt.Printf("  %-20s %-12s %6.2f %9.2f %8d %6.1f%% %10.3f %10.3f %-9s%s\n",
			rr.Name, rr.State, rr.Weight, rr.EstimateMs, rr.Served, rr.Share, rr.P50Ms, rr.P99Ms, rr.Breaker, lost)
	}

	reg := obs.DefaultRegistry
	rep.Failovers = reg.Counter("fleet.failover").Value()
	rep.Quarantines = reg.Counter("fleet.quarantines").Value()
	rep.Heals = reg.Counter("fleet.heals").Value()
	rep.Probes = reg.Counter("fleet.probes").Value()
	fmt.Printf("\n  failovers %d, quarantines %d, heals %d, probes %d\n",
		rep.Failovers, rep.Quarantines, rep.Heals, rep.Probes)
	if rep.Healed {
		fmt.Printf("  healed %s served %d requests after ramp-in\n", rep.Killed, rep.HealedServed)
	}
	if !rep.BitIdentity {
		log.Fatalf("fleet soak: %d outputs diverged from the single-device reference", mismatch.Load())
	}
	if rep.Failed > 0 {
		log.Fatalf("fleet soak: %d requests failed", rep.Failed)
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("marshal fleet report: %v", err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("write fleet report: %v", err)
		}
		log.Printf("fleet report written to %s", jsonPath)
	}
}
