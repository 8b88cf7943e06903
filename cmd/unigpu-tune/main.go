// Command unigpu-tune searches convolution schedules for a workload on a
// platform and maintains the tuning-records database (§3.2.3). It prints
// the winning configuration, its predicted latency, and the generated
// CUDA/OpenCL kernels.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"sync"

	"unigpu/internal/autotvm"
	"unigpu/internal/codegen"
	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/obs"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
	"unigpu/internal/templates"
	"unigpu/internal/tensor"
)

func main() {
	log.SetFlags(0)
	// Ctrl-C stops scheduling new workloads; in-flight searches drain and
	// the tuning DB is flushed via the atomic DB.Save, so an interrupted
	// tune never loses or corrupts records. A second Ctrl-C force-quits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	device := flag.String("device", "nano", "deeplens | aisage | nano")
	model := flag.String("model", "", "tune every conv workload of a model (e.g. ResNet50_v1)")
	budget := flag.Int("budget", 128, "measurement budget per workload")
	searcher := flag.String("search", "model", "search strategy: random | sa | model | grid")
	dbPath := flag.String("db", "tuning_records.json", "tuning-records database path")
	jobs := flag.Int("jobs", 0, "parallel tuning workers (0 = GOMAXPROCS)")
	emit := flag.Bool("emit", false, "print the generated CUDA/OpenCL for the best schedule")
	seed := flag.Int64("seed", 1, "search RNG seed")
	dtype := flag.String("dtype", "fp32",
		"also pin roofline kernel choices at this storage dtype: fp32 | fp16 | int8 | auto (auto pins all three)")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	metrics := flag.Bool("metrics", false, "print the metrics dump after tuning")
	listen := flag.String("listen", "", "serve live telemetry on this address for the run's duration (/metrics, /healthz, /debug/plans)")
	flag.Parse()

	if *trace != "" || *metrics {
		obs.Enable()
	}
	if *listen != "" {
		srv, err := obs.Serve(*listen)
		if err != nil {
			log.Fatalf("telemetry listen: %v", err)
		}
		defer srv.Close()
		log.Printf("telemetry on http://%s/metrics", srv.Addr())
	}

	var platform *sim.Platform
	switch *device {
	case "deeplens":
		platform = sim.DeepLens
	case "aisage":
		platform = sim.AiSage
	case "nano":
		platform = sim.JetsonNano
	default:
		log.Fatalf("unknown device %q", *device)
	}

	db, err := autotvm.OpenDB(*dbPath)
	if err != nil {
		log.Fatalf("open db: %v", err)
	}

	var workloads []ops.ConvWorkload
	if *model != "" {
		m := models.Build(*model, models.DefaultInputSize(*model), true)
		seen := map[string]bool{}
		for _, w := range m.Convs {
			if !seen[w.Key()] {
				seen[w.Key()] = true
				workloads = append(workloads, w)
			}
		}
		log.Printf("tuning %d unique conv workloads of %s on %s", len(workloads), *model, platform.Name)
	} else {
		// A representative default workload.
		workloads = []ops.ConvWorkload{{N: 1, CIn: 64, H: 56, W: 56, COut: 64,
			KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}}
	}

	search := map[string]func(autotvm.Task, autotvm.Options) autotvm.Result{
		"random": autotvm.RandomSearch,
		"sa":     autotvm.SimulatedAnnealing,
		"model":  autotvm.ModelGuidedSearch,
		"grid":   autotvm.GridSearch,
	}[*searcher]
	if search == nil {
		log.Fatalf("unknown search strategy %q", *searcher)
	}

	// Tune workloads in parallel over a bounded worker pool; results print
	// in workload order once everything has finished.
	nWorkers := *jobs
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	type outcome struct {
		res    autotvm.Result
		def    float64
		cached bool
	}
	results := make([]outcome, len(workloads))
	scheduled := make([]bool, len(workloads))
	var wg sync.WaitGroup
	sem := make(chan struct{}, nWorkers)
	for i, w := range workloads {
		if ctx.Err() != nil {
			break // interrupted: drain in-flight searches, then flush the DB
		}
		scheduled[i] = true
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, w ops.ConvWorkload) {
			defer wg.Done()
			defer func() { <-sem }()
			task := autotvm.Task{Workload: w, Device: platform.GPU}
			if cached, ok := db.Lookup(task); ok && cached.Trials >= *budget {
				results[i] = outcome{res: cached, cached: true}
				return
			}
			def := templates.CostMs(w, templates.DeviceDefaultConfig(w, platform.GPU), platform.GPU)
			res := search(task, autotvm.Options{Budget: *budget, Seed: *seed})
			results[i] = outcome{res: db.StoreBest(task, res), def: def}
		}(i, w)
	}
	wg.Wait()
	for i, w := range workloads {
		o := results[i]
		if !scheduled[i] {
			log.Printf("%-55s skipped (interrupted)", w.Key())
			continue
		}
		if o.cached {
			log.Printf("%-55s cached  %8.3f ms  %v", w.Key(), o.res.Ms, o.res.Config)
			continue
		}
		log.Printf("%-55s tuned   %8.3f ms  (default %8.3f ms, %.2fx, %d trials)  %v",
			w.Key(), o.res.Ms, o.def, o.def/o.res.Ms, o.res.Trials, o.res.Config)
		if *emit {
			k := templates.Schedule(w, o.res.Config, platform.GPU)
			fmt.Println("--- CUDA ---")
			fmt.Println(codegen.Emit(k, codegen.CUDA))
			fmt.Println("--- OpenCL ---")
			fmt.Println(codegen.Emit(k, codegen.OpenCL))
		}
	}
	// Pin per-dtype kernel-choice records for the tuned workloads so
	// later compiles at that precision resolve from the database instead
	// of re-running the cost model. Routing through SelectConvKernels on
	// a throwaway one-conv-per-workload graph reuses the exact selection
	// and no-clobber logic compiles see.
	if mode, ok := graph.ParseQuantMode(*dtype); !ok {
		log.Fatalf("unknown dtype %q (want fp32, fp16, int8, auto)", *dtype)
	} else if ctx.Err() == nil {
		var dts []tensor.DType
		switch mode {
		case graph.QuantFP16:
			dts = []tensor.DType{tensor.Float16}
		case graph.QuantINT8:
			dts = []tensor.DType{tensor.Int8}
		case graph.QuantAuto:
			dts = []tensor.DType{tensor.Float32, tensor.Float16, tensor.Int8}
		default:
			dts = []tensor.DType{tensor.Float32}
		}
		kg := graph.New()
		for i, w := range workloads {
			in := kg.Input(fmt.Sprintf("in%d", i), w.N, w.CIn, w.H, w.W)
			wt := kg.Constant(fmt.Sprintf("w%d", i),
				tensor.New(w.COut, w.CIn/max(1, w.Groups), w.KH, w.KW))
			for _, dt := range dts {
				kg.Apply(fmt.Sprintf("c%d_%s", i, dt), &graph.ConvOp{W: w, DType: dt}, in, wt)
			}
		}
		graph.SelectConvKernels(kg, graph.KernelSelection{Device: platform.GPU, DB: db})
		log.Printf("pinned kernel choices for %d workloads at %s", len(workloads), mode)
	}

	if err := db.Save(); err != nil {
		log.Fatalf("save db: %v", err)
	}
	if ctx.Err() != nil {
		log.Printf("interrupted: database %s flushed with %d records", *dbPath, db.Len())
	} else {
		log.Printf("database %s now holds %d records", *dbPath, db.Len())
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
}
