package unigpu

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4), plus wall-clock benchmarks of the parallel host
// implementations and ablation benchmarks for the design choices DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Table benchmarks report the simulated per-model latency via
// b.ReportMetric (sim_ms_<model>); wall-clock benchmarks measure the real
// Go implementations.

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"unigpu/internal/autotvm"
	"unigpu/internal/bench"
	"unigpu/internal/graphtuner"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
	"unigpu/internal/templates"
	"unigpu/internal/tensor"
	"unigpu/internal/vision"
)

var (
	benchOnce sync.Once
	benchEst  *bench.Estimator
)

func estimator() *bench.Estimator {
	benchOnce.Do(func() { benchEst = bench.NewEstimator() })
	return benchEst
}

func metricName(model string) string {
	return "sim_ms_" + strings.ReplaceAll(model, ".", "_")
}

func benchTable(b *testing.B, n int) {
	e := estimator()
	var t bench.Table
	for i := 0; i < b.N; i++ {
		t = e.OverallTable(n)
	}
	for _, r := range t.Rows {
		b.ReportMetric(r.OursMs, metricName(r.Model))
	}
}

// BenchmarkTable1 regenerates Table 1 (ours vs OpenVINO on AWS DeepLens).
func BenchmarkTable1_DeepLens(b *testing.B) { benchTable(b, 1) }

// BenchmarkTable2 regenerates Table 2 (ours vs ACL on Acer aiSage).
func BenchmarkTable2_AiSage(b *testing.B) { benchTable(b, 2) }

// BenchmarkTable3 regenerates Table 3 (ours vs cuDNN on Jetson Nano).
func BenchmarkTable3_JetsonNano(b *testing.B) { benchTable(b, 3) }

// BenchmarkTable4 regenerates the vision-specific-operator ablation.
func BenchmarkTable4_VisionOps(b *testing.B) {
	e := estimator()
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = e.VisionAblation()
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup, "speedup_"+shortDevice(r.Device)+"_"+strings.ReplaceAll(r.Model, ".", "_"))
	}
}

// BenchmarkTable5 regenerates the conv-tuning ablation.
func BenchmarkTable5_Tuning(b *testing.B) {
	e := estimator()
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = e.TuningAblation()
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup, "speedup_"+shortDevice(r.Device)+"_"+strings.ReplaceAll(r.Model, ".", "_"))
	}
}

// BenchmarkFallback regenerates the §3.1.2 fallback-overhead experiment.
func BenchmarkFallback_SSDResNet50(b *testing.B) {
	e := estimator()
	var r bench.FallbackResult
	for i := 0; i < b.N; i++ {
		r = e.FallbackExperiment()
	}
	b.ReportMetric(r.AllGPUMs, "sim_ms_all_gpu")
	b.ReportMetric(r.FallbackMs, "sim_ms_fallback")
	b.ReportMetric(r.OverheadPct, "overhead_pct")
}

func shortDevice(name string) string {
	switch name {
	case "AWS DeepLens":
		return "deeplens"
	case "Acer aiSage":
		return "aisage"
	default:
		return "nano"
	}
}

// BenchmarkFigure2 exercises the segmented-sort pipeline (Figure 2) on the
// host: flatten, block sort, cooperative merges — real wall-clock time.
func BenchmarkFigure2_SegmentedSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 24528 // SSD512 candidate boxes
	data := make([]float32, n)
	for i := range data {
		data[i] = rng.Float32()
	}
	segs := vision.NewEvenSegments(sizesFor(n, 20)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vision.SegmentedArgsort(data, segs, true)
	}
}

// BenchmarkFigure2_Ablation is the per-segment baseline Figure 2 replaces.
func BenchmarkFigure2_Ablation_NaiveSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 24528
	data := make([]float32, n)
	for i := range data {
		data[i] = rng.Float32()
	}
	segs := vision.NewEvenSegments(sizesFor(n, 20)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vision.NaiveSegmentedArgsort(data, segs, true)
	}
}

func sizesFor(total, segments int) []int {
	out := make([]int, segments)
	base := total / segments
	for i := range out {
		out[i] = base
	}
	out[segments-1] += total - base*segments
	return out
}

// BenchmarkFigure3 exercises the three-stage register-blocked prefix sum.
func BenchmarkFigure3_PrefixSum(b *testing.B) {
	data := make([]float32, 1<<20)
	for i := range data {
		data[i] = float32(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vision.PrefixSum(data, 16)
	}
}

// BenchmarkFigure3_Ablation is the naive whole-array Hillis-Steele scan.
func BenchmarkFigure3_Ablation_HillisSteele(b *testing.B) {
	data := make([]float32, 1<<16) // the O(n log n) formulation is far slower
	for i := range data {
		data[i] = float32(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vision.HillisSteeleScan(data)
	}
}

// BenchmarkNMS measures the GPU-shaped divergence-free NMS on the host.
func BenchmarkNMS_BoxNMS(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	num := 6132
	dets := tensor.New(1, num, vision.DetWidth)
	for i := 0; i < num; i++ {
		x, y := rng.Float32()*500, rng.Float32()*500
		dets.Set(float32(rng.Intn(20)), 0, i, 0)
		dets.Set(rng.Float32(), 0, i, 1)
		dets.Set(x, 0, i, 2)
		dets.Set(y, 0, i, 3)
		dets.Set(x+5+rng.Float32()*40, 0, i, 4)
		dets.Set(y+5+rng.Float32()*40, 0, i, 5)
	}
	cfg := vision.NMSConfig{IoUThreshold: 0.45, ScoreThreshold: 0.01, TopK: 400, MaxOutput: 100}
	out := tensor.New(1, num, vision.DetWidth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vision.BoxNMS(out, dets, cfg)
	}
}

// BenchmarkConv2D measures the parallel host convolution (ResNet stage-2
// workload).
func BenchmarkConv2D_ResNetBlock(b *testing.B) {
	w := ops.ConvWorkload{N: 1, CIn: 64, H: 56, W: 56, COut: 64, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in := tensor.New(w.N, w.CIn, w.H, w.W)
	in.FillRandom(1)
	weight := tensor.New(w.COut, w.CIn, w.KH, w.KW)
	weight.FillRandom(2)
	out := tensor.New(w.N, w.COut, w.OutH(), w.OutW())
	b.SetBytes(int64(w.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops.Conv2DInto(out, in, weight, nil, w)
	}
}

// BenchmarkAblationGraphTuner compares the layout DP against the
// transform-oblivious greedy choice (the design choice behind §3.2.3's
// graph tuner).
func BenchmarkAblationGraphTuner_DPvsGreedy(b *testing.B) {
	chain := []ops.ConvWorkload{}
	for i := 0; i < 8; i++ {
		chain = append(chain, ops.ConvWorkload{N: 1, CIn: 64, H: 28, W: 28, COut: 64,
			KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1})
	}
	d := sim.MaliT860
	cands := make([][]autotvm.Candidate, len(chain))
	for i, w := range chain {
		cands[i] = graphtuner.CandidatesFor(w, d, 16, 1)
	}
	var dp, greedy graphtuner.Plan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp = graphtuner.Optimize(chain, cands, d)
		greedy = graphtuner.Greedy(chain, cands, d)
	}
	b.ReportMetric(dp.TotalMs, "sim_ms_dp")
	b.ReportMetric(greedy.TotalMs, "sim_ms_greedy")
}

// BenchmarkAblationSubgroup prices the same Intel conv with and without
// the subgroup/GRF binding (§3.2.1).
func BenchmarkAblationSubgroup_Intel(b *testing.B) {
	w := ops.ConvWorkload{N: 1, CIn: 64, H: 28, W: 28, COut: 128, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	with := templates.Config{TileCo: 8, TileH: 2, TileW: 4, VecW: 1, TileK: 2, UnrollKernel: true, UseSubgroup: true}
	without := with
	without.UseSubgroup = false
	var a, c float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = templates.CostMs(w, with, sim.IntelHD505)
		c = templates.CostMs(w, without, sim.IntelHD505)
	}
	b.ReportMetric(a, "sim_ms_subgroup")
	b.ReportMetric(c, "sim_ms_plain")
}

// BenchmarkAblationVisionCost prices the optimized vs naive vision
// pipelines on each device (the modeled side of Table 4).
func BenchmarkAblationVisionCost(b *testing.B) {
	for _, p := range sim.Platforms() {
		p := p
		b.Run(shortDevice(p.Name), func(b *testing.B) {
			var opt, naive float64
			for i := 0; i < b.N; i++ {
				opt = vision.SegmentedSortCost(p.GPU, 10647) + vision.ScanCost(p.GPU, 10647) + vision.NMSCost(p.GPU, 10647, 100)
				naive = vision.NaiveSortCost(p.GPU, 10647, 80) + vision.NaiveScanCost(p.GPU, 10647) + 80*vision.NaiveNMSCost(p.GPU, 10647, 64)
			}
			b.ReportMetric(opt*1e3, "sim_ms_optimized")
			b.ReportMetric(naive*1e3, "sim_ms_naive")
		})
	}
}

// BenchmarkCompile measures end-to-end compilation (build + optimize +
// place + tune with warm caches).
func BenchmarkCompile_SqueezeNet(b *testing.B) {
	eng := NewEngine()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Compile("SqueezeNet1.0", JetsonNano, CompileOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInference measures functional host inference at a reduced input.
func BenchmarkInference_SqueezeNet64(b *testing.B) {
	eng := NewEngine()
	cm, err := eng.Compile("SqueezeNet1.0", JetsonNano, CompileOptions{InputSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	in := NewTensor(cm.InputShape()...)
	in.FillRandom(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cm.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFamilyVariants prices the ResNet family on the Jetson Nano —
// the §4.1 claim that variants track their evaluated representative.
func BenchmarkFamilyVariants_ResNet(b *testing.B) {
	e := estimator()
	names := []string{"ResNet18_v1", "ResNet34_v1", "ResNet50_v1", "ResNet101_v1"}
	var ms []float64
	for i := 0; i < b.N; i++ {
		ms = ms[:0]
		for _, name := range names {
			m := e.Model(name, sim.JetsonNano)
			ms = append(ms, e.TunedConvMs(m, sim.JetsonNano.GPU).TotalMs)
		}
	}
	for i, name := range names {
		b.ReportMetric(ms[i], metricName(name))
	}
}
