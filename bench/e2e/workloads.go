package main

import (
	"context"
	"fmt"
	"time"

	"unigpu"
	"unigpu/internal/obs"
	"unigpu/internal/runtime"
)

// workload is one row of the benchmark: a zoo model compiled for an
// integrated-GPU platform and served through one of the library's serving
// layers by a fixed number of closed-loop clients.
type workload struct {
	name, why string
	model     string
	size      int
	dtype     string                                                       // "" (fp32), "fp16" or "int8"
	budget    float64                                                      // max relative error vs the fp32 reference; 0 = bit-identical
	clients   int                                                          // closed-loop clients, never more than nproc (2)
	fleet     bool                                                         // compiled per platform and served by Engine.NewFleet
	open      func(cm *unigpu.CompiledModel, traced bool) (*served, error) // nil for the fleet
}

// The accuracy budgets are MobileNet1.0's row of TestDTypeAccuracyBudgets.
var workloads = []*workload{
	{
		name: "resnet50_session", model: "ResNet50_v1", size: 64, clients: 1, open: openSession,
		why: "Kernel-bound: 53 fp32 GEMM convs with fused residual epilogues, bare Session.Run, every serving layer bypassed; conv/GEMM or fusion changes show here, serving-layer changes must not.",
	},
	{
		name: "mobilenet_fp16_pool", model: "MobileNet1.0", size: 64, dtype: "fp16", budget: 0.05, clients: 2, open: openPool,
		why: "binary16 storage with widen/narrow epilogues and a depthwise+direct+GEMM mix, two pooled sessions contending for two cores; where fp16 wall is about twice fp32 today.",
	},
	{
		name: "mobilenet_int8_pool", model: "MobileNet1.0", size: 64, dtype: "int8", budget: 0.9, clients: 2, open: openPool,
		why: "int8 im2col-GEMM over fp16 carriers plus real cast nodes; a widen-once GEMM core must help here without costing resnet50_session, and an fp16-tuned change must not cost int8.",
	},
	{
		name: "ssd_detect_fleet", model: "SSD_MobileNet1.0", size: 96, clients: 2, fleet: true,
		why: "The paper's headline case: detection with vision operators, CPU-fallback NMS and device_copy, one tuned plan per paper platform behind the latency-predictive router; setup is three compiles.",
	},
	{
		name: "squeezenet_batched", model: "SqueezeNet1.0", size: 64, clients: 2, open: openBatched,
		why: "The only workload where the batcher (2 ms linger, gather/scatter, batch-2 plan) does work; on two cores it costs throughput against the unbatched pool, so batcher changes show here only.",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// served is a workload after set-up: the thing clients send requests to.
type served struct {
	run    func(ctx context.Context, in *unigpu.Tensor) (*unigpu.Tensor, error)
	close  func()
	models []*unigpu.CompiledModel // one, or one per fleet replica
	plans  []*runtime.Plan         // the plan a request runs on, per model
	fleet  *unigpu.Fleet           // nil unless the workload is a fleet
	// direct names the serving layer the client calls into: "session",
	// "pool" or "fleet". The traced pass labels its call spans with it.
	direct string
	// compileNs is the time spent in Engine.Compile (Engine.NewFleet for
	// the fleet, which also builds the plans and pools).
	compileNs int64
}

// setUp is what setup_s times: a cold engine with an empty in-memory tuning
// database, compile (three compiles for the fleet), plan, serving-layer
// construction, batch-plan warm-up, and one request answered. traced makes
// the serving layers record every request instead of their default sample;
// it is false whenever an end-to-end metric is being measured.
func (w *workload) setUp(first *unigpu.Tensor, traced bool) (*served, error) {
	eng := unigpu.NewEngineWith(unigpu.EngineOptions{DB: unigpu.NewTuningDB("")})
	copts := unigpu.CompileOptions{InputSize: w.size, DType: w.dtype}
	var s *served
	t0 := time.Now()
	if w.fleet {
		copts.FallbackNMS = true
		f, err := eng.NewFleet(w.model, copts, unigpu.FleetOptions{})
		if err != nil {
			return nil, err
		}
		s = &served{run: f.Run, close: f.Close, fleet: f, direct: "fleet", compileNs: int64(time.Since(t0))}
		for i := 0; i < f.Len(); i++ {
			s.models = append(s.models, f.Model(i))
		}
	} else {
		cm, err := eng.Compile(w.model, unigpu.DeepLens, copts)
		if err != nil {
			return nil, err
		}
		compileNs := int64(time.Since(t0))
		if s, err = w.open(cm, traced); err != nil {
			return nil, err
		}
		s.models, s.compileNs = []*unigpu.CompiledModel{cm}, compileNs
	}
	if s.plans == nil {
		for _, cm := range s.models {
			p, err := cm.Plan()
			if err != nil {
				s.close()
				return nil, err
			}
			s.plans = append(s.plans, p)
		}
	}
	if _, err := s.run(context.Background(), first); err != nil {
		s.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return s, nil
}

// openSession serves through a bare serial session. Bare sessions carry no
// telemetry by default; the traced pass attaches the profiler and wraps
// each run in a request recorder, which is how a pool would trace it.
func openSession(cm *unigpu.CompiledModel, traced bool) (*served, error) {
	var opts unigpu.SessionOptions
	if traced {
		opts.Profiler = obs.DefaultProfiler
	}
	sess, err := cm.NewSessionWith(opts)
	if err != nil {
		return nil, err
	}
	run := sess.RunContext
	if traced {
		run = func(ctx context.Context, in *unigpu.Tensor) (*unigpu.Tensor, error) {
			req := obs.DefaultRequests.Start(cm.Name)
			out, err := sess.RunContext(obs.ContextWithRequest(ctx, req), in)
			req.Finish(err)
			return out, err
		}
	}
	return &served{run: run, close: func() {}, direct: "session"}, nil
}

var poolOptions = unigpu.PoolOptions{Sessions: 2, QueueDepth: 8}

func openPool(cm *unigpu.CompiledModel, _ bool) (*served, error) {
	pool, err := cm.NewSessionPool(poolOptions)
	if err != nil {
		return nil, err
	}
	return &served{run: pool.Run, close: pool.Close, direct: "pool"}, nil
}

// openBatched is the pool plus the batching front-end. A request rides the
// batch-2 plan whenever both clients are waiting, so that is the plan whose
// arena is reported.
func openBatched(cm *unigpu.CompiledModel, _ bool) (*served, error) {
	opts := poolOptions
	opts.Batch = &unigpu.BatchOptions{MaxBatch: 2, MaxLinger: 2 * time.Millisecond}
	pool, err := cm.NewSessionPool(opts)
	if err != nil {
		return nil, err
	}
	if err := pool.WarmBatches(1, 2); err != nil {
		pool.Close()
		return nil, err
	}
	plan, err := cm.PlanForBatch(2)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return &served{run: pool.Run, close: pool.Close, direct: "pool", plans: []*runtime.Plan{plan}}, nil
}
