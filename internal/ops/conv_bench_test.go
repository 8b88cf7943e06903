package ops

import (
	"testing"

	"unigpu/internal/tensor"
)

// zooConvWorkloads are representative conv shapes from the model zoo
// (batch 1, NCHW). Names are stable so BENCH_runtime.json tracks each
// (workload, kernel) pair's trajectory across commits.
var zooConvWorkloads = []struct {
	name string
	w    ConvWorkload
}{
	{"resnet50_c64_56x56_3x3s1", ConvWorkload{N: 1, CIn: 64, COut: 64, H: 56, W: 56,
		KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, HasBias: true, FusedActivation: ActReLU}},
	{"resnet50_c256_14x14_3x3s1", ConvWorkload{N: 1, CIn: 256, COut: 256, H: 14, W: 14,
		KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, HasBias: true, FusedActivation: ActReLU}},
	{"yolov3_c128_52x52_3x3s1", ConvWorkload{N: 1, CIn: 128, COut: 128, H: 52, W: 52,
		KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, HasBias: true, FusedActivation: ActLeakyReLU}},
	{"mobilenet_c128_28x28_dw3x3s1", ConvWorkload{N: 1, CIn: 128, COut: 128, H: 28, W: 28,
		KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 128, HasBias: true, FusedActivation: ActReLU}},
	{"mobilenet_c128_28x28_dw3x3s2", ConvWorkload{N: 1, CIn: 128, COut: 128, H: 28, W: 28,
		KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 128, HasBias: true, FusedActivation: ActReLU}},
	{"mobilenet_c128_28x28_1x1s1", ConvWorkload{N: 1, CIn: 128, COut: 256, H: 28, W: 28,
		KH: 1, KW: 1, StrideH: 1, StrideW: 1, HasBias: true, FusedActivation: ActReLU}},
	{"squeezenet_c3_111x111_7x7s2", ConvWorkload{N: 1, CIn: 3, COut: 64, H: 111, W: 111,
		KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3, HasBias: true, FusedActivation: ActReLU}},
}

// BenchmarkConvKernels measures every applicable algorithm on every zoo
// workload: direct (hoisted bounds), depthwise and im2col-GEMM
// (prepacked weights + reused scratch, as the runtime runs it). The im2col-GEMM rows are the
// acceptance check: they must beat direct on the 3x3 stride-1 workloads.
func BenchmarkConvKernels(b *testing.B) {
	for _, tc := range zooConvWorkloads {
		w := tc.w
		in, weight, bias := convInputs(w, 11)
		out := tensor.New(w.N, w.COut, w.OutH(), w.OutW())

		for _, k := range ConvKernels {
			if !KernelSupported(k, w) {
				continue
			}
			p := PrepareConv(w, k, weight)
			scratch := make([]float32, p.ScratchElems())
			b.Run(tc.name+"/"+k.String(), func(b *testing.B) {
				b.ReportMetric(w.FLOPs(), "flops")
				for i := 0; i < b.N; i++ {
					p.RunInto(out, in, bias, scratch)
				}
			})
		}

		// Per-dtype rows: the same workload over fp16 and int8 storage
		// (fp32 accumulation), input conversion and weight packing outside
		// the timed loop as the runtime runs them. Int8 has no direct
		// form, so each dtype benches its default kernel.
		for _, dt := range []tensor.DType{tensor.Float16, tensor.Int8} {
			p := PrepareConvDType(w, KernelAuto, weight, dt)
			scratch := make([]float32, p.ScratchElems())
			var scratch8 []int8
			if p.ScratchDType() == tensor.Int8 {
				scratch8 = make([]int8, p.ScratchElems())
			}
			tin := tensor.Convert(in, dt, 0)
			tout := tensor.NewTyped(tensor.Float16, w.N, w.COut, w.OutH(), w.OutW())
			b.Run(tc.name+"/"+p.Kernel().String()+"@"+dt.String(), func(b *testing.B) {
				b.ReportMetric(w.FLOPs(), "flops")
				for i := 0; i < b.N; i++ {
					p.RunIntoEpilogue(tout, tin, bias, nil, scratch, scratch8, false)
				}
			})
		}
	}
}
