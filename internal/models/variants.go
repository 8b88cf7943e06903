package models

import (
	"fmt"
	"strings"

	"unigpu/internal/graph"
	"unigpu/internal/ops"
)

// §4.1: "These models all have multiple variants (e.g. ResNet-18,
// ResNet-50, etc. ...) to form a model family. For the sake of space, we
// only evaluate our solution on one variant of each model family." The
// stack supports the families; this file provides the other variants. The
// family-consistency benchmark checks that per-variant results track the
// evaluated representative.

// resnetStage describes one residual stage.
type resnetStage struct {
	blocks, mid, out, stride int
}

var resnetConfigs = map[int]struct {
	stages     []resnetStage
	bottleneck bool
}{
	18:  {[]resnetStage{{2, 64, 64, 1}, {2, 128, 128, 2}, {2, 256, 256, 2}, {2, 512, 512, 2}}, false},
	34:  {[]resnetStage{{3, 64, 64, 1}, {4, 128, 128, 2}, {6, 256, 256, 2}, {3, 512, 512, 2}}, false},
	50:  {[]resnetStage{{3, 64, 256, 1}, {4, 128, 512, 2}, {6, 256, 1024, 2}, {3, 512, 2048, 2}}, true},
	101: {[]resnetStage{{3, 64, 256, 1}, {4, 128, 512, 2}, {23, 256, 1024, 2}, {3, 512, 2048, 2}}, true},
}

// buildResNet constructs any supported ResNet-v1 depth.
func buildResNet(depth, size, batch int, lite bool) *Model {
	cfg, ok := resnetConfigs[depth]
	if !ok {
		panic(fmt.Sprintf("models: unsupported ResNet depth %d", depth))
	}
	b := newBuilder(lite)
	b.batch = batch
	in := b.input(size)
	x := b.conv("stem", in, 64, 7, 2, 3, 1, true, ops.ActReLU)
	x = b.maxpool("stem_pool", x, 3, 2, 1)
	for _, st := range cfg.stages {
		for blk := 0; blk < st.blocks; blk++ {
			stride := 1
			if blk == 0 {
				stride = st.stride
			}
			if cfg.bottleneck {
				x = b.bottleneck(x, st.mid, st.out, stride, 0, blk)
			} else {
				x = b.basicBlock(x, st.out, stride)
			}
		}
	}
	x = b.g.Apply("gap", &graph.GlobalPoolOp{}, x)
	x = b.g.Apply("flatten", &graph.FlattenOp{}, x)
	x = b.dense("fc", x, 1000)
	x = b.g.Apply("prob", &graph.SoftmaxOp{}, x)
	b.g.SetOutputs(x)
	return &Model{Graph: b.g, Convs: b.convs}
}

// basicBlock is the two-3x3 residual unit of ResNet-18/34.
func (b *builder) basicBlock(x *graph.Node, out, stride int) *graph.Node {
	shortcut := x
	y := b.conv("res_a", x, out, 3, stride, 1, 1, true, ops.ActReLU)
	y = b.conv("res_b", y, out, 3, 1, 1, 1, true, ops.ActNone)
	if x.OutShape[1] != out || stride != 1 {
		shortcut = b.conv("res_proj", x, out, 1, stride, 0, 1, true, ops.ActNone)
	}
	sum := b.g.Apply(b.unique("res_add"), &graph.AddOp{}, y, shortcut)
	return b.g.Apply(b.unique("res_relu"), &graph.ActivationOp{Act: ops.ActReLU}, sum)
}

// buildMobileNetAlpha constructs MobileNet with a width multiplier
// (MobileNet0.5, MobileNet0.25, ...).
func buildMobileNetAlpha(alpha float32, size, batch int, lite bool) *Model {
	b := newBuilder(lite)
	b.batch = batch
	in := b.input(size)
	scale := func(c int) int { return max(8, int(float32(c)*alpha)) }
	x := b.conv("stem", in, scale(32), 3, 2, 1, 1, true, ops.ActReLU)
	for _, blk := range mobileNetBlocks {
		cin := x.OutShape[1]
		x = b.conv("dw", x, cin, 3, blk.stride, 1, cin, true, ops.ActReLU)
		x = b.conv("pw", x, scale(blk.out), 1, 1, 0, 1, true, ops.ActReLU)
	}
	x = b.g.Apply("gap", &graph.GlobalPoolOp{}, x)
	x = b.g.Apply("flatten", &graph.FlattenOp{}, x)
	x = b.dense("fc", x, 1000)
	x = b.g.Apply("prob", &graph.SoftmaxOp{}, x)
	b.g.SetOutputs(x)
	return &Model{Graph: b.g, Convs: b.convs}
}

// buildSqueezeNet11 constructs SqueezeNet 1.1: the 3x3/2 stem with earlier
// pooling that cuts compute ~2.4x at equal accuracy.
func buildSqueezeNet11(size, batch int, lite bool) *Model {
	b := newBuilder(lite)
	b.batch = batch
	in := b.input(size)
	x := b.conv("stem", in, 64, 3, 2, 0, 1, false, ops.ActReLU)
	x = b.maxpool("pool1", x, 3, 2, 0)
	x = b.fire(x, 16, 64, 64)
	x = b.fire(x, 16, 64, 64)
	x = b.maxpool("pool3", x, 3, 2, 0)
	x = b.fire(x, 32, 128, 128)
	x = b.fire(x, 32, 128, 128)
	x = b.maxpool("pool5", x, 3, 2, 0)
	x = b.fire(x, 48, 192, 192)
	x = b.fire(x, 48, 192, 192)
	x = b.fire(x, 64, 256, 256)
	x = b.fire(x, 64, 256, 256)
	x = b.conv("conv10", x, 1000, 1, 1, 0, 1, false, ops.ActReLU)
	x = b.g.Apply("gap", &graph.GlobalPoolOp{}, x)
	x = b.g.Apply("flatten", &graph.FlattenOp{}, x)
	x = b.g.Apply("prob", &graph.SoftmaxOp{}, x)
	b.g.SetOutputs(x)
	return &Model{Graph: b.g, Convs: b.convs}
}

// buildVariant handles the non-representative family members; returns nil
// for unknown names.
func buildVariant(name string, size, batch int, lite bool) *Model {
	switch {
	case name == "ResNet18_v1":
		return buildResNet(18, size, batch, lite)
	case name == "ResNet34_v1":
		return buildResNet(34, size, batch, lite)
	case name == "ResNet101_v1":
		return buildResNet(101, size, batch, lite)
	case name == "MobileNet0.5":
		return buildMobileNetAlpha(0.5, size, batch, lite)
	case name == "MobileNet0.25":
		return buildMobileNetAlpha(0.25, size, batch, lite)
	case name == "SqueezeNet1.1":
		return buildSqueezeNet11(size, batch, lite)
	case strings.HasPrefix(name, "ResNet"):
		panic("models: unsupported ResNet variant " + name)
	default:
		return nil
	}
}
