// Package unigpu is a unified optimization stack for CNN model inference
// on integrated GPUs — a from-scratch Go reproduction of Wang et al.,
// "A Unified Optimization Approach for CNN Model Inference on Integrated
// GPUs" (ICPP 2019).
//
// The stack compiles CNN models (ResNet, MobileNet, SqueezeNet, SSD,
// YOLOv3) through a unified tensor IR, searches convolution schedules with
// machine-learning-guided tuning (AutoTVM-style) plus a graph-level layout
// tuner, implements the vision-specific operators (segmented argsort,
// register-blocked prefix sum, divergence-free NMS) as GPU-shaped parallel
// algorithms, and supports falling individual operators back to the CPU.
// Because Go cannot drive Intel/Mali/Nvidia silicon, execution latency
// comes from calibrated analytical device models (see internal/sim and
// DESIGN.md), while functional results are computed exactly.
//
// Quick start:
//
//	eng := unigpu.NewEngine()
//	cm, err := eng.Compile("ResNet50_v1", unigpu.DeepLens, unigpu.CompileOptions{})
//	out, err := cm.Run(input)          // functional inference
//	ms := cm.PredictedLatencyMs        // simulated device latency
//
// Repeated inference should open a Session, which executes a compiled
// plan with pooled arena memory (zero steady-state allocations), one node
// after another, each operator fanning out over the host's cores:
//
//	sess, err := cm.NewSession()
//	out, err := sess.Run(input)        // out valid until the next sess.Run
package unigpu

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"unigpu/internal/autotvm"
	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/obs"
	"unigpu/internal/price"
	"unigpu/internal/runtime"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

// Re-exported substrate types so callers outside this module can name them.
type (
	// Tensor is a dense float32 n-dimensional array.
	Tensor = tensor.Tensor
	// Platform couples an integrated GPU with its companion CPU.
	Platform = sim.Platform
	// Device is one compute device of an SoC.
	Device = sim.Device

	// FaultInjector deterministically injects simulated device failures
	// (transient kernel faults, queue hangs, device loss, memory
	// pressure) into GPU dispatches; attach one to a Device's Faults
	// field or pass it in SessionOptions.
	FaultInjector = sim.FaultInjector
	// FaultConfig parameterizes random fault injection.
	FaultConfig = sim.FaultConfig
	// Breaker is the per-device circuit breaker quarantining a failing
	// GPU (closed -> open -> half-open probe).
	Breaker = runtime.Breaker
	// NodeError is the structured failure of one graph node: the node,
	// its device, the cause, and — for recovered panics — the stack.
	NodeError = runtime.NodeError

	// TelemetryServer is a running live-telemetry listener (Prometheus
	// /metrics, /healthz, /debug/plans and friends); see ServeTelemetry.
	TelemetryServer = obs.Server
	// ProfileSnapshot is the continuous profiler's rolling top-K view of
	// where execution time goes, by (model, node, kernel kind, device).
	ProfileSnapshot = obs.ProfileSnapshot
	// RequestTrace is one sampled serving request's record: wall time
	// attributed to admission wait, queue wait, per-node execution,
	// retries/backoff and CPU re-execution, plus the node event stream.
	RequestTrace = obs.RequestTrace
	// SLOStats is one model's rolling serving health: windowed p50/p99,
	// error and shed counts, and the error-budget burn rate.
	SLOStats = obs.SLOStats
)

// ErrOverloaded is returned by SessionPool.Run when the admission
// controller sheds the request.
var ErrOverloaded = runtime.ErrOverloaded

// ErrPoolClosed is returned by SessionPool.Run for requests still queued
// (or arriving) after Close.
var ErrPoolClosed = runtime.ErrPoolClosed

// BatchOptions configures a SessionPool's batching front-end (see
// runtime.BatcherOptions): concurrent requests are coalesced — bounded by
// MaxBatch and MaxLinger — into one execution on a plan compiled for that
// batch size. PlanFor is wired automatically by NewSessionPool.
type BatchOptions = runtime.BatcherOptions

// NewFaultInjector creates a deterministic fault injector drawing random
// faults per cfg; attach it to a Device's Faults field (copy the shared
// platform first) or pass it in SessionOptions.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return sim.NewFaultInjector(cfg) }

// NewBreaker creates a closed per-device circuit breaker; zero options
// select the defaults (threshold 3, probation 250ms).
func NewBreaker(opts runtime.BreakerOptions) *Breaker { return runtime.NewBreaker(opts) }

// ServeTelemetry starts the opt-in live telemetry endpoints on addr
// (":0" picks a free port; read it back with Addr): Prometheus text at
// /metrics, liveness at /healthz (wired to breaker and pool state),
// compiled-plan metadata at /debug/plans, sampled request traces at
// /debug/requests (?format=chrome for a per-lane Chrome trace), and the
// rolling profiler at /debug/profile.
func ServeTelemetry(addr string) (*TelemetryServer, error) { return obs.Serve(addr) }

// Profile snapshots the continuous profiler all serving pools feed by
// default: the rolling top-K table of the hottest (model, node, kernel,
// device) workloads.
func Profile() ProfileSnapshot { return obs.Profile() }

// RequestTraces returns the recently retained sampled request traces,
// most recent last.
func RequestTraces() []RequestTrace { return obs.DefaultRequests.Snapshot() }

// SLOReport refreshes and returns the rolling serving-health stats for
// every model the default SLO monitor has seen.
func SLOReport() []SLOStats { return obs.DefaultSLO.Publish() }

// The three evaluation platforms of the paper (§4.1).
var (
	DeepLens   = sim.DeepLens
	AiSage     = sim.AiSage
	JetsonNano = sim.JetsonNano
)

// NewTensor allocates a zero-filled tensor.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// ModelNames lists the supported model zoo (§4.1).
func ModelNames() []string { return models.Names() }

// Platforms lists the three evaluation platforms in paper order.
func Platforms() []*Platform { return sim.Platforms() }

// TuningDB is the persistent tuning-records database of §3.2.3: tuning
// winners keyed by (device, workload), including the graph tuner's
// per-layout candidate sets, so a workload is never searched twice.
type TuningDB = autotvm.DB

// OpenTuningDB loads a tuning database from disk, creating an empty one if
// the file does not exist. A corrupt file is an error, never a silently
// empty database.
func OpenTuningDB(path string) (*TuningDB, error) { return autotvm.OpenDB(path) }

// NewTuningDB creates an in-memory tuning database; path may be empty for
// no persistence.
func NewTuningDB(path string) *TuningDB { return autotvm.NewDB(path) }

// Engine owns the tuning caches shared across compilations (the per-
// platform schedule database of §3.2.3).
type Engine struct {
	est *price.Estimator
}

// EngineOptions configures the tuning pipeline shared by an engine's
// compilations.
type EngineOptions struct {
	// DB is an optional persistent tuning-records database: Compile
	// consults it before searching and stores winners after, so a warm
	// database makes a cold Compile near-instant. Call SaveTuning (or
	// DB.Save) to persist it.
	DB *TuningDB
	// Jobs bounds the parallel tuning worker pool (0 = GOMAXPROCS).
	Jobs int
	// Budget overrides the per-layout search budget (0 = default 48).
	Budget int
}

// NewEngine creates an engine with default search budgets.
func NewEngine() *Engine { return &Engine{est: price.NewEstimator()} }

// NewEngineWith creates an engine with an attached tuning database and
// explicit parallelism/budget settings.
func NewEngineWith(opts EngineOptions) *Engine {
	est := price.NewEstimator()
	est.DB = opts.DB
	est.Jobs = opts.Jobs
	if opts.Budget > 0 {
		est.Budget = opts.Budget
	}
	return &Engine{est: est}
}

// TuningDB returns the engine's tuning database, or nil.
func (e *Engine) TuningDB() *TuningDB { return e.est.DB }

// SaveTuning persists the engine's tuning database, if one with a backing
// path was provided.
func (e *Engine) SaveTuning() error {
	if e.est.DB == nil {
		return nil
	}
	return e.est.DB.Save()
}

// CompileOptions configures one compilation.
type CompileOptions struct {
	// InputSize overrides the model's default square input (224/512/320).
	InputSize int
	// SkipTuning compiles with the pre-tuning default schedules (the
	// "Before" configuration of Table 5).
	SkipTuning bool
	// FallbackNMS places box_nms (and its sorting) on the companion CPU
	// instead of the integrated GPU (§3.1.2).
	FallbackNMS bool
	// DType selects the storage/compute precision policy: "" or "fp32"
	// (default — bit-identical to the goldens), "fp16" (binary16 storage,
	// fp32 accumulation), "int8" (symmetric int8 convolutions over fp16
	// carriers), or "auto" (per-conv roofline choice among the three).
	// Non-fp32 modes run graph quantization with seeded calibration;
	// outputs always come back float32.
	DType string
}

// CompiledModel is a model optimized for one platform.
type CompiledModel struct {
	Name     string
	Platform *Platform
	// PredictedLatencyMs is the end-to-end latency on the simulated
	// device: tuned conv kernels + layout transforms + elementwise ops +
	// vision-operator pipeline (+ fallback copies when enabled).
	PredictedLatencyMs float64
	// ConvKernelMs / TransformMs / VisionMs break the prediction down.
	ConvKernelMs float64
	TransformMs  float64
	VisionMs     float64
	// NodesOnCPU counts operators placed on the companion CPU.
	NodesOnCPU int
	// CopiesInserted counts device_copy nodes from the placement pass.
	CopiesInserted int
	// ConvKernels counts the convolutions assigned to each algorithm by
	// the kernel-selection pass (keys: direct, depthwise, gemm).
	ConvKernels map[string]int
	// DType is the compiled precision policy ("fp32", "fp16", "int8",
	// "auto") and Quant what the quantization pass did (zero for fp32).
	DType string
	Quant graph.QuantizeStats

	model *models.Model

	// lowering is what Compile decided, kept to lower the model again at
	// batch N; plans is the per-batch-size plan cache (singleflight via each
	// slot's sync.Once), the model's own plan under batch 1.
	lowering lowering
	planMu   sync.Mutex
	plans    map[int]*planSlot
}

// lowering is the graph-level half of a compile — the decisions that turn
// a frontend graph into the one a plan is built from — as Compile and
// PlanForBatch both run it.
type lowering struct {
	quant     graph.QuantizeOptions
	kernels   graph.KernelSelection
	placement graph.PlacementOptions
}

// lower rewrites g in place: graph optimization, mixed-precision lowering
// (before kernel selection, so the selector prices and records kernels at
// each conv's storage dtype), per-workload conv algorithm selection (the
// roofline cost model picks among direct / depthwise / gemm,
// tuning-DB kernel records taking precedence), then device placement
// (§3.1.2). It returns what the quantization pass did, the convolutions per
// selected kernel name, and the device copies inserted.
func (l lowering) lower(g *graph.Graph) (graph.QuantizeStats, map[string]int, int, error) {
	graph.Optimize(g)
	qstats, err := graph.QuantizeGraph(g, l.quant)
	if err != nil {
		return qstats, nil, 0, err
	}
	ksp := obs.Start("select.kernels", obs.KV("device", l.kernels.Device.Name))
	kernels := map[string]int{}
	for k, c := range graph.SelectConvKernels(g, l.kernels) {
		kernels[k.String()] = c
	}
	ksp.End()
	return qstats, kernels, graph.PlaceDevices(g, l.placement), nil
}

type planSlot struct {
	once sync.Once
	plan *runtime.Plan
	err  error
}

// Compile builds, graph-optimizes, places, tunes and prices a model. The
// whole compilation runs under a "compile" tracing span with child spans
// per stage (graph passes, placement, schedule/layout tuning, pricing).
func (e *Engine) Compile(name string, p *Platform, opts CompileOptions) (*CompiledModel, error) {
	sp := obs.Start("compile", obs.KV("model", name), obs.KV("platform", p.Name))
	defer sp.End()
	if !slices.Contains(models.Names(), name) {
		return nil, fmt.Errorf("unigpu: unknown model %q (have %v)", name, models.Names())
	}
	size := opts.InputSize
	if size == 0 {
		size = price.InputSize(name, p)
	}
	mode, ok := graph.ParseQuantMode(opts.DType)
	if !ok {
		return nil, fmt.Errorf("unigpu: unknown dtype %q (want fp32, fp16, int8, auto)", opts.DType)
	}
	bsp := obs.Start("frontend.build", obs.KVInt("input_size", size))
	m := models.Build(name, size, false)
	bsp.End()

	cm := &CompiledModel{Name: name, Platform: p, model: m, DType: mode.String()}
	cm.lowering = lowering{
		quant:   graph.QuantizeOptions{Mode: mode, Device: p.GPU},
		kernels: graph.KernelSelection{Device: p.GPU, DB: e.est.DB},
	}
	// Everything GPU-friendly stays on the GPU; the fallback option sends
	// NMS (and the detection decode it sorts for) to the CPU.
	if opts.FallbackNMS {
		cm.lowering.placement.FallbackKinds = map[string]bool{"box_nms": true, "multibox_detection": true}
	}
	var err error
	if cm.Quant, cm.ConvKernels, cm.CopiesInserted, err = cm.lowering.lower(m.Graph); err != nil {
		return nil, fmt.Errorf("unigpu: quantize %s: %w", name, err)
	}
	cm.NodesOnCPU = m.Graph.Summary().OnCPU

	// Latency prediction on the simulated device.
	psp := obs.Start("price", obs.KV("device", p.GPU.Name))
	vis := price.Optimized
	if opts.FallbackNMS {
		vis = price.Fallback
	}
	lat := e.est.Price(m, p, !opts.SkipTuning, vis)
	psp.End()
	cm.ConvKernelMs = lat.ConvKernelMs
	cm.TransformMs = lat.TransformMs
	cm.VisionMs = lat.VisionMs
	cm.PredictedLatencyMs = lat.TotalMs
	sp.SetAttrs(obs.KVFloat("predicted_ms", cm.PredictedLatencyMs),
		obs.KVInt("copies", cm.CopiesInserted))
	return cm, nil
}

// InputShape returns the expected input tensor shape (1, 3, s, s).
func (cm *CompiledModel) InputShape() []int {
	s := cm.model.InputSize
	return []int{1, 3, s, s}
}

// Plan returns the model's compiled execution plan (topological schedule,
// arena-slot assignment), building it on first use. The plan is immutable
// and shared by every session of this model.
func (cm *CompiledModel) Plan() (*runtime.Plan, error) { return cm.PlanForBatch(1) }

// PlanForBatch returns a plan compiled for a (n, 3, s, s) input, rebuilding
// the model at batch n and lowering it as the original compile did (same
// tuning DB, so a warm database makes the rebuild fast). Plans are cached
// per batch size with singleflight compilation; n <= 1 returns the
// canonical per-request plan, built from the compiled graph itself.
// Weight seeding is batch-independent, so the batched plan computes exactly
// the same function per batch row as the per-request plan.
func (cm *CompiledModel) PlanForBatch(n int) (*runtime.Plan, error) {
	n = max(n, 1)
	cm.planMu.Lock()
	if cm.plans == nil {
		cm.plans = map[int]*planSlot{}
	}
	sl, ok := cm.plans[n]
	if !ok {
		sl = &planSlot{}
		cm.plans[n] = sl
	}
	cm.planMu.Unlock()
	sl.once.Do(func() {
		g, label := cm.model.Graph, cm.Name+"@"+cm.Platform.Name
		if n > 1 {
			sp := obs.Start("compile.batch_plan", obs.KV("model", cm.Name), obs.KVInt("batch", n))
			defer sp.End()
			m := models.BuildN(cm.Name, cm.model.InputSize, n, false)
			if _, _, _, sl.err = cm.lowering.lower(m.Graph); sl.err != nil {
				return
			}
			g, label = m.Graph, fmt.Sprintf("%s#b%d", label, n)
		}
		if sl.plan, sl.err = runtime.NewPlan(g); sl.err == nil {
			sl.plan.SetLabel(label)
		}
	})
	return sl.plan, sl.err
}

// SessionOptions configures one inference session (see runtime.SessionOptions).
type SessionOptions = runtime.SessionOptions

// Session is a reusable inference loop over the model's compiled plan. It
// owns a preallocated arena for every intermediate tensor, so steady-state
// Run calls perform no heap allocations for intermediates. A Session is
// not safe for concurrent use; open one Session per goroutine — they share
// the plan and each costs only its arena.
type Session struct {
	sess  *runtime.Session
	feeds map[string]*tensor.Tensor
}

// NewSession opens a serial zero-allocation inference session.
func (cm *CompiledModel) NewSession() (*Session, error) {
	return cm.NewSessionWith(SessionOptions{})
}

// NewSessionWith opens a session with explicit options (telemetry, fault
// tolerance). When no injector is given explicitly, the
// session picks up the one attached to the platform's GPU device, so
// faults injected at the device level reach every session automatically.
func (cm *CompiledModel) NewSessionWith(opts SessionOptions) (*Session, error) {
	plan, err := cm.Plan()
	if err != nil {
		return nil, err
	}
	if opts.Faults == nil {
		opts.Faults = cm.Platform.GPU.Faults
	}
	if opts.Model == "" {
		opts.Model = cm.Name
	}
	return &Session{
		sess:  plan.NewSessionWith(opts),
		feeds: map[string]*tensor.Tensor{},
	}, nil
}

// Run executes one inference. The returned tensor is arena-backed: it is
// valid until this session's next Run and must be copied to outlive it.
func (s *Session) Run(input *Tensor) (*Tensor, error) {
	return s.RunContext(context.Background(), input)
}

// RunContext is Run with cancellation: the context is honoured between
// nodes and inside a simulated GPU queue hang, and a cancelled run leaves
// the session reusable.
func (s *Session) RunContext(ctx context.Context, input *Tensor) (*Tensor, error) {
	s.feeds["data"] = input
	outs, err := s.sess.RunContext(ctx, s.feeds)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// PoolOptions configures a SessionPool (see runtime.PoolOptions).
type PoolOptions = runtime.PoolOptions

// SessionPool is the serving edge over one compiled model: a fixed set of
// pooled sessions behind an admission controller with a bounded wait
// queue, deadline-aware load shedding (ErrOverloaded), and — under fault
// injection — one circuit breaker shared by every pooled session.
type SessionPool struct {
	pool *runtime.SessionPool
}

// NewSessionPool opens a session pool. As with NewSessionWith, the
// platform GPU's fault injector is picked up when none is set explicitly.
func (cm *CompiledModel) NewSessionPool(opts PoolOptions) (*SessionPool, error) {
	plan, err := cm.Plan()
	if err != nil {
		return nil, err
	}
	if opts.Session.Faults == nil {
		opts.Session.Faults = cm.Platform.GPU.Faults
	}
	if opts.Session.Model == "" {
		opts.Session.Model = cm.Name
	}
	if opts.Batch != nil && opts.Batch.PlanFor == nil {
		b := *opts.Batch // don't mutate the caller's options
		b.PlanFor = cm.PlanForBatch
		opts.Batch = &b
	}
	return &SessionPool{pool: runtime.NewSessionPool(plan, opts)}, nil
}

// WarmBatches pre-compiles the batched plans for the given batch sizes,
// blocking until each is ready; a no-op when batching is off. Benchmarks
// call it so steady-state numbers exclude the one-time compiles.
func (p *SessionPool) WarmBatches(sizes ...int) error {
	if b := p.pool.Batcher(); b != nil {
		return b.Warm(sizes...)
	}
	return nil
}

// Close stops the pool's batching dispatcher (if any); queued requests
// fail with ErrPoolClosed. The per-request path keeps working.
func (p *SessionPool) Close() { p.pool.Close() }

// Run admits one inference request, executes it on a pooled session, and
// returns a copy of the output (safe to keep; the session returns to the
// pool). Requests past the pool's capacity and queue depth are shed with
// ErrOverloaded; expired deadlines shed with ctx.Err().
func (p *SessionPool) Run(ctx context.Context, input *Tensor) (*Tensor, error) {
	outs, err := p.pool.Run(ctx, map[string]*tensor.Tensor{"data": input})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Breaker returns the pool's shared circuit breaker (nil without fault
// injection).
func (p *SessionPool) Breaker() *Breaker { return p.pool.Breaker() }

// Run executes the compiled model functionally on the host and returns the
// output tensor (class probabilities, or detections [class, score, box]).
// Each call runs a throwaway session over the model's cached plan, so the
// caller owns the result; for repeated inference use NewSession, which
// also reuses the arena.
func (cm *CompiledModel) Run(input *Tensor) (*Tensor, error) {
	return cm.RunContext(context.Background(), input)
}

// RunContext is Run with cancellation: a SIGINT-bound or deadline context
// aborts the inference between node dispatches. Like NewSessionWith, it
// honours a fault injector attached to the platform's GPU device.
func (cm *CompiledModel) RunContext(ctx context.Context, input *Tensor) (*Tensor, error) {
	s, err := cm.NewSession()
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx, input)
}

// GraphStats summarises the optimized graph.
func (cm *CompiledModel) GraphStats() graph.Stats { return cm.model.Graph.Summary() }

// Experiments exposes the engine's price estimator: its tuning cache and
// the conv, vision and other-operator prices Compile composes.
func (e *Engine) Experiments() *price.Estimator { return e.est }

// ---- Fleet serving ----

type (
	// HealPolicy schedules how a quarantined fleet replica returns to
	// service: probe wait, probe timeout, and the traffic ramp.
	HealPolicy = runtime.HealPolicy
	// RouterOptions configures fleet placement scoring (EWMA correction
	// of the roofline cost oracle by observed latency).
	RouterOptions = runtime.RouterOptions
	// ReplicaStats is one fleet replica's serving snapshot: state,
	// weight, latency estimate and observed p50/p99, served counts,
	// breaker and device health.
	ReplicaStats = runtime.ReplicaStats
	// ReplicaState is a fleet replica's lifecycle state (active,
	// quarantined, probing, ramping).
	ReplicaState = runtime.ReplicaState
)

// Re-exported replica lifecycle states.
const (
	ReplicaActive      = runtime.ReplicaActive
	ReplicaQuarantined = runtime.ReplicaQuarantined
	ReplicaProbing     = runtime.ReplicaProbing
	ReplicaRamping     = runtime.ReplicaRamping
)

// FleetOptions configures Engine.NewFleet.
type FleetOptions struct {
	// Platforms are the device replicas, one per entry; repeating a
	// platform makes homogeneous replicas. Default: the paper's three
	// evaluation platforms (DeepLens, aiSage, Jetson Nano).
	Platforms []*Platform
	// Sessions and QueueDepth size each replica's pool (defaults 2, 8).
	Sessions   int
	QueueDepth int
	// Faults supplies one injector per replica, index-aligned with
	// Platforms; missing or nil entries get a quiet scripted injector
	// (Rate 0, seeded by replica index) so Kill/Heal scripting always
	// works.
	Faults []*FaultInjector
	// Heal schedules quarantined-replica recovery; Router tunes
	// placement scoring. Zero values select the defaults.
	Heal   HealPolicy
	Router RouterOptions
}

// Fleet serves one model across N device replicas: per-replica compiled
// plans (each tuned for its platform), latency-predictive routing seeded
// by the roofline cost oracle, breaker-aware failover that drains a lost
// device's traffic to the survivors, and a probe-then-ramp heal lifecycle.
// Outputs are bit-identical regardless of which replica serves.
type Fleet struct {
	fleet  *runtime.Fleet
	models []*CompiledModel
}

// NewFleet compiles the model once per platform and assembles the serving
// fleet. Each replica gets its own plan, session pool, fault injector and
// circuit breaker, named <platform>-<index> (e.g. "aws-deeplens-0").
func (e *Engine) NewFleet(model string, copts CompileOptions, fopts FleetOptions) (*Fleet, error) {
	plats := fopts.Platforms
	if len(plats) == 0 {
		plats = Platforms()
	}
	sessions := fopts.Sessions
	if sessions <= 0 {
		sessions = 2
	}
	depth := fopts.QueueDepth
	if depth <= 0 {
		depth = 8
	}
	f := &Fleet{}
	reps := make([]runtime.ReplicaConfig, len(plats))
	for i, p := range plats {
		cm, err := e.Compile(model, p, copts)
		if err != nil {
			return nil, err
		}
		plan, err := cm.Plan()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s-%d", replicaSlug(p.Name), i)
		var inj *FaultInjector
		if i < len(fopts.Faults) {
			inj = fopts.Faults[i]
		}
		if inj == nil {
			inj = NewFaultInjector(FaultConfig{Seed: int64(i), Device: name})
		}
		reps[i] = runtime.ReplicaConfig{
			Name:      name,
			Plan:      plan,
			PredictMs: cm.PredictedLatencyMs,
			Pool: runtime.PoolOptions{
				Sessions:   sessions,
				QueueDepth: depth,
				Session:    runtime.SessionOptions{Model: model, Faults: inj},
			},
		}
		f.models = append(f.models, cm)
	}
	fl, err := runtime.NewFleet(runtime.FleetOptions{
		Replicas: reps,
		Router:   fopts.Router,
		Heal:     fopts.Heal,
	})
	if err != nil {
		return nil, err
	}
	f.fleet = fl
	return f, nil
}

// replicaSlug turns a platform name into a metric-safe replica label:
// lower-case, runs of non-alphanumerics collapsed to single dashes.
func replicaSlug(name string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

// Run places one request on the best replica (predicted latency x load x
// health weight) and fails over down the ranking on replica errors; the
// output is bit-identical no matter which replica serves.
func (f *Fleet) Run(ctx context.Context, input *Tensor) (*Tensor, error) {
	outs, err := f.fleet.Run(ctx, map[string]*tensor.Tensor{"data": input})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Len returns the number of replicas; Name returns replica i's label.
func (f *Fleet) Len() int          { return f.fleet.Len() }
func (f *Fleet) Name(i int) string { return f.fleet.Name(i) }

// Model returns the compiled model serving replica i (its predicted
// latency seeds the router's cost oracle).
func (f *Fleet) Model(i int) *CompiledModel { return f.models[i] }

// State returns replica i's lifecycle state; Served how many requests it
// has completed.
func (f *Fleet) State(i int) ReplicaState { return f.fleet.State(i) }
func (f *Fleet) Served(i int) int64       { return f.fleet.Served(i) }

// Kill deterministically loses replica i's device mid-run (the soak's
// kill script); the fleet quarantines it and drains traffic to survivors.
func (f *Fleet) Kill(i int) { f.fleet.Kill(i) }

// HealNow resets replica i's device and probes it immediately, bypassing
// the heal schedule; it reports whether the probe recovered the replica
// (which then ramps back to full traffic share).
func (f *Fleet) HealNow(i int) bool { return f.fleet.HealNow(i) }

// Stats snapshots every replica's serving state (also exposed live at
// /debug/fleet when telemetry is being served).
func (f *Fleet) Stats() []ReplicaStats { return f.fleet.Stats() }

// Close stops the heal supervisor and every replica pool.
func (f *Fleet) Close() { f.fleet.Close() }
