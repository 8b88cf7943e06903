// Package models defines the six evaluation networks of §4.1 exactly as
// architectural workloads — layer-by-layer channel counts, kernel sizes,
// strides and paddings matching the GluonCV model zoo variants the paper
// measures: ResNet50_v1, MobileNet1.0, SqueezeNet1.0, SSD_MobileNet1.0,
// SSD_ResNet50 and YOLOv3. Weights are synthetic (inference latency depends
// on shapes, not values); each builder emits both an executable graph and
// the topological conv-workload sequence the tuners and the latency tables
// consume.
package models

import (
	"fmt"

	"unigpu/internal/graph"
	"unigpu/internal/ops"
	"unigpu/internal/tensor"
	"unigpu/internal/vision"
)

// VisionProfile summarises a detection model's post-processing workload:
// the inputs to the vision-specific operators of §3.1.
type VisionProfile struct {
	Boxes   int // candidate boxes entering NMS per image
	Classes int // foreground classes (the naive formulation sorts per class)
	Kept    int // boxes surviving NMS (suppression sweeps)
	Heads   int // detection heads / decode kernels
}

// Model couples a built graph with its tuning workloads.
type Model struct {
	Name      string
	InputSize int
	Batch     int // input batch size the graph was built at (>= 1)
	Graph     *graph.Graph
	Convs     []ops.ConvWorkload // topological conv sequence (dense folded in as 1x1)
	Vision    *VisionProfile     // nil for classification models
}

// IsDetection reports whether the model has vision-specific
// post-processing.
func (m *Model) IsDetection() bool { return m.Vision != nil }

// builder threads graph construction state through the architecture code.
type builder struct {
	g     *graph.Graph
	seed  int64
	lite  bool // skip weight randomisation (workload-only callers)
	batch int  // input batch size (>= 1)
	convs []ops.ConvWorkload
	names map[string]int
}

func newBuilder(lite bool) *builder {
	return &builder{g: graph.New(), seed: 1, lite: lite, batch: 1, names: map[string]int{}}
}

// input adds the model's data input at the builder's batch size. Weight
// seeding is independent of the batch, so the same model built at any two
// batch sizes computes the identical function per batch row.
func (b *builder) input(size int) *graph.Node {
	return b.g.Input("data", b.batch, 3, size, size)
}

func (b *builder) unique(name string) string {
	b.names[name]++
	if b.names[name] > 1 {
		return fmt.Sprintf("%s_%d", name, b.names[name])
	}
	return name
}

func (b *builder) weight(name string, shape ...int) *graph.Node {
	t := tensor.New(shape...)
	if !b.lite {
		b.seed++
		t.FillRandom(b.seed)
		// Keep magnitudes tame so deep nets do not overflow float32.
		scale := float32(0.2)
		for i := range t.Data() {
			t.Data()[i] *= scale
		}
	}
	return b.g.Constant(b.unique(name), t)
}

func (b *builder) bnParams(name string, c int) (gamma, beta, mean, variance *graph.Node) {
	g := tensor.New(c)
	g.Fill(1)
	bt := tensor.New(c)
	mn := tensor.New(c)
	vr := tensor.New(c)
	vr.Fill(1)
	if !b.lite {
		b.seed++
		bt.FillRandom(b.seed)
		b.seed++
		mn.FillRandom(b.seed)
	}
	return b.g.Constant(b.unique(name+"_gamma"), g), b.g.Constant(b.unique(name+"_beta"), bt),
		b.g.Constant(b.unique(name+"_mean"), mn), b.g.Constant(b.unique(name+"_var"), vr)
}

// conv adds conv(+BN)(+activation) and records the workload. groups=cin
// gives a depthwise conv.
func (b *builder) conv(name string, x *graph.Node, cout, k, stride, pad, groups int, bn bool, act ops.Activation) *graph.Node {
	s := x.OutShape
	w := ops.ConvWorkload{
		N: s[0], CIn: s[1], H: s[2], W: s[3],
		COut: cout, KH: k, KW: k,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
		Groups: groups,
	}
	b.convs = append(b.convs, w)
	g := max(1, groups)
	weight := b.weight(name+"_w", cout, s[1]/g, k, k)
	node := b.g.Apply(b.unique(name), &graph.ConvOp{W: w}, x, weight)
	if bn {
		ga, be, mn, vr := b.bnParams(name, cout)
		node = b.g.Apply(b.unique(name+"_bn"), &graph.BatchNormOp{Eps: 1e-5}, node, ga, be, mn, vr)
	}
	switch act {
	case ops.ActReLU:
		node = b.g.Apply(b.unique(name+"_relu"), &graph.ActivationOp{Act: ops.ActReLU}, node)
	case ops.ActLeakyReLU:
		node = b.g.Apply(b.unique(name+"_leaky"), &graph.ActivationOp{Act: ops.ActLeakyReLU, Alpha: 0.1}, node)
	}
	return node
}

// dense adds a fully connected layer, accounted as a 1x1 conv workload.
func (b *builder) dense(name string, x *graph.Node, units int) *graph.Node {
	in := x.OutShape[1]
	b.convs = append(b.convs, ops.ConvWorkload{
		N: x.OutShape[0], CIn: in, H: 1, W: 1, COut: units, KH: 1, KW: 1, StrideH: 1, StrideW: 1,
	})
	w := b.weight(name+"_w", units, in)
	bias := b.weight(name+"_b", units)
	return b.g.Apply(b.unique(name), &graph.DenseOp{}, x, w, bias)
}

func (b *builder) maxpool(name string, x *graph.Node, k, stride, pad int) *graph.Node {
	return b.g.Apply(b.unique(name), &graph.PoolOp{PoolKind: ops.MaxPool, Kernel: k, Stride: stride, Pad: pad}, x)
}

// Registry -------------------------------------------------------------------

// Names lists the evaluation models in paper order (Tables 1-3).
func Names() []string {
	return []string{"ResNet50_v1", "MobileNet1.0", "SqueezeNet1.0",
		"SSD_MobileNet1.0", "SSD_ResNet50", "Yolov3"}
}

// Build constructs a model at the given square input size. Each call
// returns a fresh graph (passes mutate graphs in place, so instances must
// not be shared between experiments). lite skips weight randomisation for
// workload-only uses.
func Build(name string, inputSize int, lite bool) *Model {
	return BuildN(name, inputSize, 1, lite)
}

// BuildN constructs a model with a (batch, 3, size, size) input. Weight
// seeding does not depend on the batch, so BuildN(name, s, n, lite)
// computes exactly the same function per batch row as Build(name, s, lite)
// — the property the batched serving front-end relies on. Every operator
// in the zoo (including the detection decode and NMS tails) treats the
// leading dimension as independent rows.
func BuildN(name string, inputSize, batch int, lite bool) *Model {
	if batch < 1 {
		batch = 1
	}
	var m *Model
	switch name {
	case "ResNet50_v1":
		m = buildResNet50(inputSize, batch, lite)
	case "MobileNet1.0":
		m = buildMobileNet(inputSize, batch, lite)
	case "SqueezeNet1.0":
		m = buildSqueezeNet(inputSize, batch, lite)
	case "SSD_MobileNet1.0":
		m = buildSSD(inputSize, batch, lite, "MobileNet1.0")
	case "SSD_ResNet50":
		m = buildSSD(inputSize, batch, lite, "ResNet50_v1")
	case "Yolov3":
		m = buildYoloV3(inputSize, batch, lite)
	default:
		if m = buildVariant(name, inputSize, batch, lite); m == nil {
			panic("models: unknown model " + name)
		}
	}
	m.Name = name
	m.InputSize = inputSize
	m.Batch = batch
	return m
}

// DefaultInputSize mirrors §4.1: classification at 224, detection at 512
// (reduced to 300 on aiSage by price.InputSize). The paper does not state the
// YOLOv3 input size; 320 (a standard GluonCV yolo3 option) is the size at
// which the reported latencies are consistent with the ResNet-calibrated
// device efficiencies on all three platforms, so the reproduction uses it.
func DefaultInputSize(name string) int {
	switch name {
	case "Yolov3":
		return 320
	case "SSD_MobileNet1.0", "SSD_ResNet50":
		return 512
	default:
		return 224
	}
}

var _ = vision.DetWidth // vision types appear in the SSD/YOLO builders
