package graph

import (
	"math"
	"testing"

	"unigpu/internal/ops"
	"unigpu/internal/tensor"
	"unigpu/internal/vision"
)

// rnd is a deterministic pseudo-random fp32 tensor in [-1, 1).
func rnd(seed int64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillRandom(seed)
	return t
}

// poison fills t's storage with a code no kernel writes by accident: NaN
// for float storage, -123 for int8.
func poison(t *tensor.Tensor) {
	switch t.DType() {
	case tensor.Float16:
		nan := tensor.F16Encode(float32(math.NaN()))
		for i := range t.Half() {
			t.Half()[i] = nan
		}
	case tensor.Int8:
		for i := range t.Int8Data() {
			t.Int8Data()[i] = -123
		}
	default:
		t.Fill(float32(math.NaN()))
	}
}

// detRows is a (1, num, 6) detection tensor in which NMS keeps some rows and
// invalidates the rest: few classes, heavily overlapping boxes, scores
// spread across the threshold.
func detRows(num int) *tensor.Tensor {
	d := tensor.New(1, num, vision.DetWidth)
	for i := 0; i < num; i++ {
		x, y := float32(i%5)*3, float32(i%3)*3
		row := [vision.DetWidth]float32{float32(i % 2), float32((i*7)%10) / 10, x, y, x + 6, y + 6}
		d.StoreF(i*vision.DetWidth, row[:])
	}
	return d
}

// TestExecuteIntoOverwrites holds every operator kind to the one contract
// of graph.Operator: ExecuteInto writes every element of its output, so a
// run into a buffer still holding garbage (a reused arena slot) gives the
// bits of a run into a zeroed one. Typed outputs (fp16 carriers, int8) are
// poisoned with codes of their own.
func TestExecuteIntoOverwrites(t *testing.T) {
	f32, f16, i8 := tensor.Float32, tensor.Float16, tensor.Int8
	x, y := rnd(1, 1, 4, 6, 6), rnd(2, 1, 4, 6, 6)
	x16, y16 := tensor.Convert(x, f16, 0), tensor.Convert(y, f16, 0)
	x8 := tensor.Convert(x, i8, 0)
	conv := ops.ConvWorkload{N: 1, CIn: 4, COut: 5, H: 6, W: 6, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, HasBias: true, FusedActivation: ops.ActReLU}
	dw := ops.ConvWorkload{N: 1, CIn: 4, COut: 4, H: 6, W: 6, KH: 3, KW: 3,
		StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 4}
	variance := rnd(7, 4)
	for i, v := range variance.Data() {
		variance.Data()[i] = v*v + 0.5
	}
	nmsCfg := vision.NMSConfig{IoUThreshold: 0.3, ScoreThreshold: 0.25, TopK: 30, MaxOutput: 12}
	anchors := tensor.New(1, 20, 4)
	anchors.FillFunc(func(i int) float32 { return float32(i/4)/25 + float32(i%4/2)*0.2 })

	cases := []struct {
		name string
		op   Operator
		ins  []*tensor.Tensor
		dt   tensor.DType // output storage
	}{
		{"conv2d/gemm", &ConvOp{W: conv, Kernel: ops.KernelGEMM}, []*tensor.Tensor{x, rnd(3, 5, 4, 3, 3), rnd(4, 5)}, f32},
		{"conv2d/direct+residual", &ConvOp{W: conv, Kernel: ops.KernelDirect, Residual: true},
			[]*tensor.Tensor{x, rnd(3, 5, 4, 3, 3), rnd(4, 5), rnd(5, 1, 5, 6, 6)}, f32},
		{"conv2d/depthwise@fp16", &ConvOp{W: dw, Kernel: ops.KernelDepthwise, DType: f16}, []*tensor.Tensor{x16, rnd(6, 4, 1, 3, 3)}, f16},
		{"batch_norm", &BatchNormOp{Eps: 1e-5}, []*tensor.Tensor{x, rnd(8, 4), rnd(9, 4), rnd(10, 4), variance}, f32},
		{"relu", &ActivationOp{Act: ops.ActReLU}, []*tensor.Tensor{x}, f32},
		{"relu@fp16", &ActivationOp{Act: ops.ActReLU}, []*tensor.Tensor{x16}, f16},
		{"leaky_relu", &ActivationOp{Act: ops.ActLeakyReLU, Alpha: 0.1}, []*tensor.Tensor{x}, f32},
		{"sigmoid", &SigmoidOp{}, []*tensor.Tensor{x}, f32},
		{"pool2d/max", &PoolOp{PoolKind: ops.MaxPool, Kernel: 3, Stride: 2, Pad: 1}, []*tensor.Tensor{x}, f32},
		{"pool2d/avg@fp16", &PoolOp{PoolKind: ops.AvgPool, Kernel: 2, Stride: 2}, []*tensor.Tensor{x16}, f16},
		{"global_avg_pool", &GlobalPoolOp{}, []*tensor.Tensor{x}, f32},
		{"dense", &DenseOp{Act: ops.ActReLU}, []*tensor.Tensor{rnd(11, 2, 16), rnd(12, 5, 16), rnd(13, 5)}, f32},
		{"softmax", &SoftmaxOp{}, []*tensor.Tensor{rnd(14, 2, 10)}, f32},
		{"flatten", &FlattenOp{}, []*tensor.Tensor{x}, f32},
		{"flatten@int8", &FlattenOp{}, []*tensor.Tensor{x8}, i8},
		{"add", &AddOp{}, []*tensor.Tensor{x, y}, f32},
		{"add@fp16", &AddOp{}, []*tensor.Tensor{x16, y16}, f16},
		{"fused_elementwise", &FusedElementwiseOp{Stages: []ops.ElementwiseStage{{Kind: ops.EwAdd}, {Kind: ops.EwLeakyReLU, Alpha: 0.1}}},
			[]*tensor.Tensor{x, y}, f32},
		{"concat/channels", &ConcatOp{}, []*tensor.Tensor{x, y}, f32},
		{"concat/rows", &ConcatOp{}, []*tensor.Tensor{detRows(7), detRows(5)}, f32},
		{"upsample", &UpsampleOp{}, []*tensor.Tensor{x}, f32},
		{"device_copy", &DeviceCopyOp{}, []*tensor.Tensor{x}, f32},
		{"cast@fp16", &CastOp{To: f16}, []*tensor.Tensor{x}, f16},
		{"cast@int8", &CastOp{To: i8, Scale: 0.01}, []*tensor.Tensor{x}, i8},
		{"head_reshape", &HeadReshapeOp{Anchors: 2, Attrs: 2}, []*tensor.Tensor{x}, f32},
		{"box_nms", &BoxNMSOp{Cfg: nmsCfg}, []*tensor.Tensor{detRows(40)}, f32},
		{"multibox_detection/rows", &SSDDetectionOp{Cfg: nmsCfg},
			[]*tensor.Tensor{rnd(17, 1, 20, 3), rnd(18, 1, 20, 4), anchors}, f32},
		{"yolo_decode", &YoloDecodeOp{Anchors: [][2]float32{{10, 14}, {23, 27}}, NumClasses: 3, Stride: 8},
			[]*tensor.Tensor{rnd(19, 1, 2*(5+3), 3, 3)}, f32},
	}

	// Every kind the quantizer knows, and the SSD head's rearrangement,
	// must have a case here.
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.op.Kind()] = true
	}
	for _, kinds := range []map[string]bool{fp32OnlyKinds, carrierKinds, {"head_reshape": true}} {
		for k := range kinds {
			if !covered[k] {
				t.Errorf("operator kind %q has no overwrite case", k)
			}
		}
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			shapes := make([]tensor.Shape, len(c.ins))
			for i, in := range c.ins {
				shapes[i] = in.Shape()
			}
			shape := c.op.InferShape(shapes)
			want, got := tensor.NewTyped(c.dt, shape...), tensor.NewTyped(c.dt, shape...)
			if c.dt == i8 {
				want.SetScale(0.01)
				got.SetScale(0.01)
			}
			c.op.ExecuteInto(want, c.ins)
			poison(got)
			c.op.ExecuteInto(got, c.ins)
			sameBits(t, c.name, got, want)
		})
	}
}

// TestFlatten: FlattenOp folds every axis after the batch into one and
// keeps the row-major element order.
func TestFlatten(t *testing.T) {
	in := rnd(21, 2, 3, 4, 4)
	op := &FlattenOp{}
	shape := op.InferShape([]tensor.Shape{in.Shape()})
	if !shape.Equal(tensor.Shape{2, 48}) {
		t.Fatalf("flatten shape = %v", shape)
	}
	out := tensor.New(shape...)
	op.ExecuteInto(out, []*tensor.Tensor{in})
	sameBits(t, "flatten", out, in.Reshape(2, 48))
}
