// Command unigpu-bench regenerates the paper's tables and figures and the
// four host-clock zoo tables EXPERIMENTS.md quotes (kernel selection,
// fusion, mixed precision, fault tolerance).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"unigpu"
	"unigpu/bench/e2e/harness"
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

// tables lists every artifact run accepts.
var tables = []string{"1", "2", "3", "4", "5", "fallback", "figure2", "figure3", "irsize",
	"experiments", "kernels", "fusion", "dtype", "faults", "all"}

func main() {
	log.SetFlags(0)
	// Ctrl-C stops the zoo tables mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	table := flag.String("table", "all", "which artifact to regenerate: "+strings.Join(tables, ","))
	jsonPath := flag.String("json", "", "also write Tables 1-3 results as machine-readable JSON to this file")
	dbPath := flag.String("db", "", "tuning-records database path (warm DB skips the schedule searches)")
	jobs := flag.Int("jobs", 0, "parallel tuning workers (0 = GOMAXPROCS)")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	metrics := flag.Bool("metrics", false, "print the metrics dump after the run")
	flag.Parse()

	if *trace != "" || *metrics {
		obs.Enable()
	}
	e := bench.NewEstimator()
	e.Jobs = *jobs
	if *dbPath != "" {
		db, err := autotvm.OpenDB(*dbPath)
		if err != nil {
			log.Fatalf("open db: %v", err)
		}
		e.DB = db
	}
	if err := run(ctx, os.Stdout, e, *table); err != nil {
		log.Fatal(err)
	}
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
	if e.DB != nil {
		if err := e.DB.Save(); err != nil {
			log.Fatalf("save db: %v", err)
		}
		log.Printf("tuning database %s holds %d records", *dbPath, e.DB.Len())
	}
}

// run writes one artifact of tables to w.
func run(ctx context.Context, w io.Writer, e *bench.Estimator, table string) error {
	switch table {
	case "1", "2", "3":
		fmt.Fprint(w, e.OverallTable(int(table[0]-'0')).Format())
	case "4":
		fmt.Fprint(w, bench.FormatAblation("Table 4: vision-specific operator optimizations", e.VisionAblation()))
	case "5":
		fmt.Fprint(w, bench.FormatAblation("Table 5: tuning-based conv optimizations", e.TuningAblation()))
	case "fallback":
		r := e.FallbackExperiment()
		fmt.Fprintf(w, "all-GPU %.2f ms, NMS fallback %.2f ms, overhead %.2f%%\n", r.AllGPUMs, r.FallbackMs, r.OverheadPct)
	case "figure2":
		fmt.Fprint(w, bench.Figure2Demo())
	case "figure3":
		fmt.Fprint(w, bench.Figure3Demo())
	case "irsize":
		irL, cuL, clL := bench.IRSizeExperiment()
		fmt.Fprintf(w, "vision pipeline in unified IR: %d lines -> %d CUDA + %d OpenCL lines\n", irL, cuL, clL)
	case "experiments":
		fmt.Fprint(w, e.ExperimentsReport())
	case "kernels":
		return kernelsTable(ctx, w)
	case "fusion":
		return fusionTable(ctx, w)
	case "dtype":
		return dtypeTable(ctx, w)
	case "faults":
		return faultsTable(ctx, w)
	case "all":
		fmt.Fprintf(w, "%s\n%s\n%s\n", e.OverallTable(1).Format(), e.OverallTable(2).Format(), e.OverallTable(3).Format())
		fmt.Fprintf(w, "%s\n%s", bench.FormatAblation("Table 4", e.VisionAblation()), bench.FormatAblation("Table 5", e.TuningAblation()))
		r := e.FallbackExperiment()
		fmt.Fprintf(w, "\nFallback: all-GPU %.2f ms, fallback %.2f ms, overhead %.2f%%\n", r.AllGPUMs, r.FallbackMs, r.OverheadPct)
	default:
		return fmt.Errorf("unknown table %q; valid: %s", table, strings.Join(tables, ", "))
	}
	return nil
}

// zoo lists the host-clock tables' models, shrunk to take seconds per table.
var zoo = []struct {
	name string
	size int
}{
	{"ResNet50_v1", 96}, {"MobileNet1.0", 96}, {"SqueezeNet1.0", 96},
	{"SSD_MobileNet1.0", 128}, {"SSD_ResNet50", 128}, {"Yolov3", 96},
}

// buildPlan builds a zoo model, rewrites its graph with prepare and
// compiles the plan, returning it with a seeded random input feed.
func buildPlan(name string, size int, prepare func(*graph.Graph)) (*runtime.Plan, map[string]*tensor.Tensor, error) {
	m := models.Build(name, size, false)
	prepare(m.Graph)
	plan, err := runtime.NewPlan(m.Graph)
	if err != nil {
		return nil, nil, fmt.Errorf("plan %s: %w", name, err)
	}
	feed := tensor.New(1, 3, size, size)
	feed.FillRandom(7)
	return plan, map[string]*tensor.Tensor{"data": feed}, nil
}

// bestOf3 runs s on feeds four times, the first (rep -1) to warm up, and
// returns the fastest of the other three in ms with the last outputs.
func bestOf3(ctx context.Context, s *runtime.Session, feeds map[string]*tensor.Tensor) (best float64, outs []*tensor.Tensor, err error) {
	for rep := -1; rep < 3; rep++ {
		t0 := time.Now()
		if outs, err = s.RunContext(ctx, feeds); err != nil {
			return 0, nil, err
		}
		if ms := float64(time.Since(t0).Microseconds()) / 1e3; rep == 0 || ms < best {
			best = ms
		}
	}
	return best, outs, nil
}

// kernelsTable times each zoo model with every conv on the direct kernel and
// on the cost model's pick: EXPERIMENTS.md's "Convolution kernel selection".
func kernelsTable(ctx context.Context, w io.Writer) error {
	fmt.Fprintln(w, "Convolution kernel selection: direct-only vs selected (wall clock)")
	fmt.Fprintf(w, "%-18s %6s %12s %12s %8s  %s\n", "model", "size", "direct ms", "selected ms", "speedup", "selection")
	for _, mc := range zoo {
		var counts map[ops.ConvKernel]int
		var ms [2]float64
		for i, pick := range []func(*graph.Graph){
			func(g *graph.Graph) { graph.ForceConvKernel(g, ops.KernelDirect) },
			func(g *graph.Graph) {
				counts = graph.SelectConvKernels(g, graph.KernelSelection{Device: sim.IntelHD505})
			},
		} {
			plan, feeds, err := buildPlan(mc.name, mc.size, func(g *graph.Graph) { graph.Optimize(g); pick(g) })
			if err != nil {
				return err
			}
			if ms[i], _, err = bestOf3(ctx, plan.NewSession(), feeds); err != nil {
				return err
			}
		}
		parts := make([]string, 0, len(counts))
		for _, k := range ops.ConvKernels {
			if counts[k] > 0 {
				parts = append(parts, fmt.Sprintf("%s:%d", k, counts[k]))
			}
		}
		fmt.Fprintf(w, "%-18s %6d %12.2f %12.2f %7.2fx  %s\n",
			mc.name, mc.size, ms[0], ms[1], ms[0]/ms[1], strings.Join(parts, " "))
	}
	return nil
}

// fusionTable compares each zoo model's plan after the pre-fusion passes
// with the full Optimize pipeline, which adds residual-epilogue and
// elementwise-chain fusion: EXPERIMENTS.md's "Graph-level operator fusion".
func fusionTable(ctx context.Context, w io.Writer) error {
	unfused := func(g *graph.Graph) {
		graph.FoldBatchNorm(g)
		graph.FuseActivations(g)
		graph.PrecomputeConstants(g)
		g.EliminateDead()
	}
	fmt.Fprintln(w, "Graph-level operator fusion: pre-fusion pipeline vs full Optimize")
	fmt.Fprintf(w, "%-18s %6s %8s %8s %6s %10s %10s %10s %10s %9s %9s %8s\n",
		"model", "size", "nodes", "fused", "drop",
		"arena KiB", "fused KiB", "inter KiB", "fused KiB", "wall ms", "fused ms", "speedup")
	for _, mc := range zoo {
		var p [2]*runtime.Plan
		var ms [2]float64
		for i, prepare := range []func(*graph.Graph){unfused, graph.Optimize} {
			plan, feeds, err := buildPlan(mc.name, mc.size, prepare)
			if err != nil {
				return err
			}
			if ms[i], _, err = bestOf3(ctx, plan.NewSession(), feeds); err != nil {
				return err
			}
			p[i] = plan
		}
		n0, n1 := p[0].NumNodes(), p[1].NumNodes()
		fmt.Fprintf(w, "%-18s %6d %8d %8d %5.1f%% %10d %10d %10d %10d %9.2f %9.2f %7.2fx\n",
			mc.name, mc.size, n0, n1, 100*float64(n0-n1)/float64(n0), p[0].ArenaBytes()/1024, p[1].ArenaBytes()/1024,
			p[0].IntermediateBytes()/1024, p[1].IntermediateBytes()/1024, ms[0], ms[1], ms[0]/ms[1])
	}
	return nil
}

// dtypeTable compiles each zoo model at fp32, fp16, int8 and auto, and
// prints harness.RelErr, the benchmark's accuracy metric, against the fp32
// output: EXPERIMENTS.md's "Mixed precision" table.
func dtypeTable(ctx context.Context, w io.Writer) error {
	fmt.Fprintln(w, "Mixed precision & quantization: per-dtype compile of the zoo (DeepLens, untuned schedules)")
	fmt.Fprintf(w, "%-18s %-5s %9s %9s %10s %10s %7s %6s %12s\n",
		"model", "dtype", "sim ms", "wall ms", "arena KiB", "inter KiB", "casts", "fused", "max rel err")
	for _, mc := range zoo {
		in := tensor.New(1, 3, mc.size, mc.size)
		in.FillRandom(42)
		var ref []float32
		for _, dt := range []string{"fp32", "fp16", "int8", "auto"} {
			cm, err := unigpu.NewEngine().Compile(mc.name, unigpu.DeepLens,
				unigpu.CompileOptions{InputSize: mc.size, SkipTuning: true, DType: dt})
			if err != nil {
				return fmt.Errorf("compile %s %s: %w", mc.name, dt, err)
			}
			plan, err := cm.Plan()
			if err != nil {
				return fmt.Errorf("plan %s %s: %w", mc.name, dt, err)
			}
			best, outs, err := bestOf3(ctx, plan.NewSession(), map[string]*tensor.Tensor{"data": in})
			if err != nil {
				return fmt.Errorf("run %s %s: %w", mc.name, dt, err)
			}
			if dt == "fp32" {
				ref = append([]float32(nil), outs[0].Data()...)
			}
			fmt.Fprintf(w, "%-18s %-5s %9.2f %9.2f %10d %10d %7d %6d %12.2e\n",
				mc.name, dt, cm.PredictedLatencyMs, best, plan.ArenaBytes()/1024, plan.IntermediateBytes()/1024,
				cm.Quant.CastsInserted, cm.Quant.CastsFused, harness.RelErr(ref, outs[0].Data(), outs[0].Shape()))
		}
	}
	return nil
}

// faultsTable times each zoo model healthy and with the GPU quarantined (a
// scripted device loss opens the breaker), where every GPU node re-executes
// on the CPU: EXPERIMENTS.md's fault-tolerance table.
func faultsTable(ctx context.Context, w io.Writer) error {
	fmt.Fprintln(w, "Fault tolerance: healthy vs degraded (GPU quarantined, CPU re-execution)")
	fmt.Fprintf(w, "%-18s %6s %12s %14s %9s  %s\n", "model", "size", "healthy ms", "quarantined ms", "overhead", "bit-identical")
	for _, mc := range zoo {
		plan, feeds, err := buildPlan(mc.name, mc.size, graph.Optimize)
		if err != nil {
			return err
		}
		healthyMs, healthy, err := bestOf3(ctx, plan.NewSession(), feeds)
		if err != nil {
			return err
		}
		degradedMs, degraded, err := bestOf3(ctx, plan.NewSessionWith(runtime.SessionOptions{ // the warm-up run opens the breaker
			Faults:       sim.NewFaultInjector(sim.FaultConfig{}).Script(sim.FaultDeviceLost),
			Breaker:      runtime.NewBreaker(runtime.BreakerOptions{Threshold: 1, Probation: time.Hour}),
			RetryBackoff: 10 * time.Microsecond,
		}), feeds)
		if err != nil {
			return err
		}
		identical := len(healthy) == len(degraded)
		for k := 0; identical && k < len(healthy); k++ {
			h, d := healthy[k].Data(), degraded[k].Data()
			identical = len(h) == len(d) && harness.FirstBitDiff(h, d) < 0
		}
		fmt.Fprintf(w, "%-18s %6d %12.2f %14.2f %8.1f%%  %v\n",
			mc.name, mc.size, healthyMs, degradedMs, 100*(degradedMs-healthyMs)/healthyMs, identical)
	}
	return nil
}
