package unigpu

import (
	"math"
	"testing"

	"unigpu/internal/tensor"
)

// dtypeBudget is the per-model relative-error budget for one precision
// mode: classification outputs compare elementwise normalized by the
// largest finite reference magnitude; detection outputs (rank 3) compare
// the sorted confidence column only, because box coordinates are chaotic
// under random weights (the fp32 Yolov3 baseline already overflows exp).
// The metric is not the one the unigpu-bench dtype table reports:
// relErrVsRef skips a non-finite output, where harness.RelErr, the
// table's and the repo benchmark's metric, reads it as infinite error.
type dtypeBudget struct {
	model string
	size  int
	fp16  float64
	int8  float64
}

// Budgets are roughly 2-3x the measured error so a real precision
// regression trips them, but RNG or ordering jitter does not. The int8
// column is generous by design: symmetric per-tensor activation
// quantization of random-weight nets costs real accuracy, which is why
// -dtype auto never picks int8 when fp16 wins the roofline.
var dtypeBudgets = []dtypeBudget{
	{"ResNet50_v1", 64, 0.05, 0.9},
	{"MobileNet1.0", 96, 0.05, 0.9},
	{"SqueezeNet1.0", 96, 0.06, 0.9},
	{"SSD_MobileNet1.0", 96, 0.10, 0.9},
	{"SSD_ResNet50", 64, 0.10, 0.9},
	{"Yolov3", 64, 0.10, 0.9},
}

func relErrVsRef(ref, got *tensor.Tensor) float64 {
	if ref.Rank() == 3 {
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

// TestDTypeAccuracyBudgets runs the whole zoo under every reduced
// precision mode and holds each model to its budget against the fp32
// reference. fp32 itself must be bit-identical to a second fp32 compile
// (quantization off is a guaranteed no-op), and auto may never exceed
// the fp16 budget — the mode picks int8 only where the roofline says it
// pays, and the zoo devices make fp16 the winner.
func TestDTypeAccuracyBudgets(t *testing.T) {
	for _, b := range dtypeBudgets {
		t.Run(b.model, func(t *testing.T) {
			t.Parallel() // models are independent; keep the race run inside the per-package budget
			eng := NewEngine()
			in := NewTensor(1, 3, b.size, b.size)
			in.FillRandom(7)

			run := func(dtype string) *tensor.Tensor {
				cm, err := eng.Compile(b.model, DeepLens,
					CompileOptions{InputSize: b.size, SkipTuning: true, DType: dtype})
				if err != nil {
					t.Fatalf("compile %s: %v", dtype, err)
				}
				out, err := cm.Run(in)
				if err != nil {
					t.Fatalf("run %s: %v", dtype, err)
				}
				return out.Clone()
			}

			ref := run("fp32")
			// The quantization-off no-op guarantee (explicit "fp32" vs the
			// empty default, bit for bit) is checked on the cheapest model
			// only; recompiling the whole zoo twice would double the cost
			// for zero extra signal.
			if b.model == "SqueezeNet1.0" {
				again := run("")
				for i := 0; i < ref.Size(); i++ {
					rb, gb := math.Float32bits(ref.GetF(i)), math.Float32bits(again.GetF(i))
					if rb != gb {
						t.Fatalf("fp32 not bit-identical at elem %d: %#08x vs %#08x", i, rb, gb)
					}
				}
			}

			for _, tc := range []struct {
				dtype  string
				budget float64
			}{
				{"fp16", b.fp16},
				{"auto", b.fp16},
				{"int8", b.int8},
			} {
				if err := relErrVsRef(ref, run(tc.dtype)); err > tc.budget {
					t.Errorf("%s %s: rel error %.3e exceeds budget %.1e",
						b.model, tc.dtype, err, tc.budget)
				}
			}
		})
	}
}
