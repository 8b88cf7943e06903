// Package price is the simulated-latency half of the compiler (§3.2.3,
// §4): tuned and default conv schedules from templates+autotvm+graphtuner,
// the layout DP's transforms, the other operators' bandwidth cost and the
// vision-operator pipeline, all priced on the devices of internal/sim.
// Engine.Compile and the paper's table harness (internal/bench) both price
// a model through Estimator.Price, so a compiled model and a table cell
// agree to the bit.
package price

import (
	"runtime"
	"sync"

	"unigpu/internal/autotvm"
	"unigpu/internal/graph"
	"unigpu/internal/graphtuner"
	"unigpu/internal/models"
	"unigpu/internal/obs"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
	"unigpu/internal/templates"
	"unigpu/internal/vision"
)

// Estimator prices models on platforms, caching tuning results per
// (device, workload) the way the paper's tuning database does. With a DB
// attached the cache is persistent: searches consult the database first
// and store their winners, so a warm database makes a cold process's
// first compilation near-instant.
type Estimator struct {
	Budget int // per-layout search budget
	// Jobs bounds the worker pool tuning a model's conv workloads in
	// parallel; 0 means GOMAXPROCS. Set before the first search.
	Jobs int
	// DB is the optional persistent tuning-records database (§3.2.3). Set
	// before the first search; nil keeps the cache in-memory only.
	DB *autotvm.DB

	mu    sync.Mutex
	cands map[string]*candEntry
}

// candEntry is one singleflight slot of the candidates cache: the first
// goroutine to claim a key runs the search inside once; concurrent
// requests for the same (device, workload) block on it instead of
// duplicating the search.
type candEntry struct {
	once  sync.Once
	cands []autotvm.Candidate
}

// searchSeed seeds every layout search, so searches are deterministic.
const searchSeed = 1

// NewEstimator returns an estimator with the default search budget.
func NewEstimator() *Estimator {
	return &Estimator{Budget: 48, cands: map[string]*candEntry{}}
}

// InputSize is the square input a model is priced and compiled at on a
// platform (§4.1): the model default, except SSD on aiSage at 300, the
// memory limitation of the Mali GPU (§4.2).
func InputSize(name string, p *sim.Platform) int {
	if p == sim.AiSage && (name == "SSD_MobileNet1.0" || name == "SSD_ResNet50") {
		return 300
	}
	return models.DefaultInputSize(name)
}

// candidates tunes one workload per candidate layout, cached per device
// with singleflight semantics: concurrent callers of the same key share
// one search. With a DB attached, the database is consulted before
// searching and the winners stored after.
func (e *Estimator) candidates(w ops.ConvWorkload, d *sim.Device, parent *obs.Span) []autotvm.Candidate {
	key := d.Name + "|" + w.Key()
	e.mu.Lock()
	ent, ok := e.cands[key]
	if !ok {
		ent = &candEntry{}
		e.cands[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		if e.DB != nil {
			if stored, ok := e.DB.LookupCandidates(d.Name, w.Key(), e.Budget); ok {
				ent.cands = stored
				obs.Count("tune.db_hits", 1)
				return
			}
		}
		ent.cands = graphtuner.CandidatesForUnder(parent, w, d, e.Budget, searchSeed)
		if e.DB != nil {
			e.DB.StoreCandidates(d.Name, w.Key(), e.Budget, ent.cands)
		}
	})
	return ent.cands
}

// TunedConvMs runs the graph tuner's DP over the model's conv sequence and
// returns total kernel+transform milliseconds. Per-workload candidate
// generation fans out over a bounded worker pool (Jobs workers); the
// singleflight cache deduplicates repeated workloads, and the layout DP
// stays sequential (it is cheap and order-dependent).
func (e *Estimator) TunedConvMs(m *models.Model, d *sim.Device) graphtuner.Plan {
	sp := obs.Start("tune.conv_plan",
		obs.KVInt("convs", len(m.Convs)), obs.KV("device", d.Name))
	defer sp.End()
	cands := make([][]autotvm.Candidate, len(m.Convs))
	jobs := e.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, jobs)
	for i, w := range m.Convs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, w ops.ConvWorkload) {
			defer wg.Done()
			defer func() { <-sem }()
			cands[i] = e.candidates(w, d, sp)
		}(i, w)
	}
	wg.Wait()
	plan := graphtuner.Optimize(m.Convs, cands, d)
	sp.SetAttrs(obs.KVFloat("total_ms", plan.TotalMs))
	return plan
}

// UntunedConvMs prices every conv with the pre-tuning default schedule
// (the "Before" of Table 5).
func (e *Estimator) UntunedConvMs(m *models.Model, d *sim.Device) float64 {
	var total float64
	for _, w := range m.Convs {
		total += templates.CostMs(w, templates.DeviceDefaultConfig(w, d), d)
	}
	return total
}

// OtherOpsMs prices the non-convolution graph nodes (pooling, residual
// adds, concats, reshapes): bandwidth-bound elementwise kernels.
func (e *Estimator) OtherOpsMs(m *models.Model, d *sim.Device) float64 {
	var total float64
	for _, n := range m.Graph.OpNodes() {
		switch n.Op.Kind() {
		case "conv2d", "dense", "flatten", "batch_norm",
			"box_nms", "multibox_detection", "yolo_decode", "device_copy":
			continue // conv/dense in the plan; vision in the profile
		}
		outE := float64(n.OutShape.NumElements())
		bytes := outE * float64(n.StorageDType().Size())
		for _, in := range n.Inputs {
			if in.Op != nil || in.IsInput() {
				e := float64(in.OutShape.NumElements())
				bytes += e * float64(in.StorageDType().Size())
			}
		}
		// Traffic counts each tensor at its storage width (fp16 carriers
		// halve it); elementwise flops stay priced at full rate.
		total += sim.CostFlopsBytes(d, 2*outE, bytes/4, 4, 1) * 1e3
	}
	return total
}

// OptimizedVisionMs prices the §3.1.1 post-processing pipeline: one
// segmented sort over all boxes, the register-blocked compaction scan, the
// divergence-free NMS, plus the per-head decode kernels.
func OptimizedVisionMs(v *models.VisionProfile, d *sim.Device) float64 {
	if v == nil {
		return 0
	}
	decode := float64(v.Heads) * sim.LaunchCost(d)
	s := vision.SegmentedSortCost(d, v.Boxes) +
		vision.ScanCost(d, v.Boxes) +
		vision.NMSCost(d, v.Boxes, v.Kept) +
		decode
	return s * 1e3
}

// NaiveVisionMs prices the pre-optimization formulation the paper improves
// on (Table 4's "Before"): per-class fine-grained sorting, a whole-array
// Hillis-Steele scan per head, and a branching per-class NMS loop on GPU.
func NaiveVisionMs(v *models.VisionProfile, d *sim.Device) float64 {
	if v == nil {
		return 0
	}
	const keptPerClass = 64 // suppression iterations per class in the naive loop
	s := vision.NaiveSortCost(d, v.Boxes, v.Classes) +
		float64(v.Heads)*vision.NaiveScanCost(d, v.Boxes) +
		float64(v.Classes)*vision.NaiveNMSCost(d, v.Boxes, keptPerClass)
	return s * 1e3
}

// FallbackVisionMs prices NMS fallen back to the companion CPU (§3.1.2):
// the sequential algorithm plus two device copies of the detection tensor
// over shared DRAM.
func FallbackVisionMs(v *models.VisionProfile, p *sim.Platform) float64 {
	if v == nil {
		return 0
	}
	bytes := float64(v.Boxes * vision.DetWidth * 4)
	s := vision.CPUNMSCost(p.CPU, v.Boxes, v.Kept) + 2*sim.CopyCost(p, bytes) +
		float64(v.Heads)*sim.LaunchCost(p.GPU)
	return s * 1e3
}

// Vision selects how a detection model's post-processing is priced.
type Vision int

const (
	Optimized Vision = iota // the §3.1.1 operators on the integrated GPU
	Naive                   // the formulation before them (Table 4's "Before")
	Fallback                // NMS on the companion CPU (§3.1.2)
)

// Latency is a model's simulated end-to-end latency and its breakdown.
type Latency struct {
	ConvKernelMs float64 // conv kernels, scaled to their storage dtypes
	TransformMs  float64 // the layout DP's transforms (0 untuned)
	VisionMs     float64
	TotalMs      float64 // the above plus the other operators
}

// Price is the end-to-end latency of a model on a platform: searched
// (tuned) or default conv schedules (Table 5), the layout transforms the
// graph tuner chose, every other operator, and the vision pipeline in
// variant v (Table 4, §3.1.2).
func (e *Estimator) Price(m *models.Model, p *sim.Platform, tuned bool, v Vision) Latency {
	var l Latency
	if tuned {
		plan := e.TunedConvMs(m, p.GPU)
		l.ConvKernelMs, l.TransformMs = plan.KernelMs, plan.TransformMs
	} else {
		l.ConvKernelMs = e.UntunedConvMs(m, p.GPU)
	}
	// Tuning searches schedules in fp32; narrowed convolutions scale the
	// tuned kernel time by the roofline dtype ratio (exactly 1 for fp32).
	l.ConvKernelMs *= graph.DTypeConvScale(m.Graph, p.GPU)
	switch v {
	case Fallback:
		l.VisionMs = FallbackVisionMs(m.Vision, p)
	case Naive:
		l.VisionMs = NaiveVisionMs(m.Vision, p.GPU)
	default:
		l.VisionMs = OptimizedVisionMs(m.Vision, p.GPU)
	}
	l.TotalMs = l.ConvKernelMs + l.TransformMs + e.OtherOpsMs(m, p.GPU) + l.VisionMs
	return l
}
