package graph

import (
	"errors"
	"fmt"

	"unigpu/internal/obs"
	"unigpu/internal/ops"
	"unigpu/internal/tensor"
	"unigpu/internal/vision"
)

// Every operator computes into the output buffer it is handed (ExecuteInto)
// and overwrites all of it, so the pooled runtime executes the dense
// kernels, the data movement and the vision post-processing pipelines alike
// against reused arena buffers. None loops over elements through the
// coordinate accessors At/Set: row offsets are worked out once and elements
// read and written flat (GetF/SetF).

// ConvOp is a 2-D convolution; inputs: data, weight[, bias][, residual].
//
// Kernel is the algorithm the kernel-selection pass (SelectConvKernels)
// chose for this workload; KernelAuto falls back to ops.DefaultKernel.
// Prepare packs constant weights for the effective kernel once, at plan
// time; ExecuteInto packs on the fly through the same code, so the
// reference executor and the plan run the identical algorithm (and hence
// produce identical bits).
//
// Residual marks a fused residual add (FuseConvResidual): the node's last
// input is an output-shaped tensor summed into every element by the kernel
// epilogue — before the fused activation (ResNet conv→add→relu), or after
// it when ResidualPostAct is set (Darknet conv+act→add).
type ConvOp struct {
	W               ops.ConvWorkload
	Kernel          ops.ConvKernel
	Residual        bool
	ResidualPostAct bool
	// DType is the storage dtype the kernel computes over (QuantizeGraph):
	// the conv's data input must arrive in this dtype (the pass inserts
	// casts), weights are narrowed at prepack time, and accumulation stays
	// fp32 regardless.
	DType tensor.DType
}

func (o *ConvOp) Kind() string { return "conv2d" }

// ArgIndices returns the input positions of the optional bias and residual
// operands for a node with n inputs (-1 when absent): the residual, when
// fused, is always the last input; a bias sits at index 2.
func (o *ConvOp) ArgIndices(n int) (bias, residual int) {
	bias, residual = -1, -1
	last := n - 1
	if o.Residual && last >= 2 {
		residual = last
		last--
	}
	if last >= 2 {
		bias = 2
	}
	return bias, residual
}

func (o *ConvOp) InferShape(ins []tensor.Shape) tensor.Shape {
	return tensor.Shape{o.W.N, o.W.COut, o.W.OutH(), o.W.OutW()}
}
func (o *ConvOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	o.bind(ins[1], len(ins)).Run(out, ins, nil)
}
func (o *ConvOp) GPUFriendly() bool { return true }

// preparedConv is a ConvOp bound to its weights: the selected kernel's
// packed layout plus the operand positions the epilogue reads.
type preparedConv struct {
	conv      *ops.PreparedConv
	bias, res int // positions in ins, -1 when absent
	postAct   bool
}

func (o *ConvOp) bind(weight *tensor.Tensor, inputs int) *preparedConv {
	p := &preparedConv{conv: ops.PrepareConvDType(o.W, o.Kernel, weight, o.DType), postAct: o.ResidualPostAct}
	p.bias, p.res = o.ArgIndices(inputs)
	return p
}

// Prepare packs the weights for the selected kernel and storage dtype.
// Only constant weights qualify (a fed or computed weight could change
// between runs); otherwise every run packs, as ExecuteInto does.
func (o *ConvOp) Prepare(n *Node) (PreparedOp, error) {
	if len(n.Inputs) < 2 || !n.Inputs[1].IsConstant() {
		return intoOp{o}, nil
	}
	// The conv epilogue stores (and reads its fused residual) as fp32 or
	// fp16 only: an int8 conv dequantizes into a carrier.
	if n.DType == tensor.Int8 {
		return nil, errors.New("conv has an int8 output; convs write fp32 or fp16 storage")
	}
	if _, res := o.ArgIndices(len(n.Inputs)); res >= 0 && n.Inputs[res].StorageDType() == tensor.Int8 {
		return nil, fmt.Errorf("conv has an int8 fused residual %q; residuals are fp32 or fp16 storage", n.Inputs[res].Name)
	}
	p := o.bind(n.Inputs[1].Value, len(n.Inputs))
	obs.Count("kernel.selected."+p.conv.Kernel().String(), 1)
	return p, nil
}

func (p *preparedConv) Scratch() (int, tensor.DType) {
	return p.conv.ScratchElems(), p.conv.ScratchDType()
}

func (p *preparedConv) Label() string {
	label := "conv2d/" + p.conv.Kernel().String()
	if dt := p.conv.DType(); dt != tensor.Float32 {
		label += "@" + dt.String()
	}
	return label
}

// Run executes the packed kernel. The fused residual rides in as an extra
// input and must not alias out (the planner acquires the output slot before
// it releases the inputs'). A nil scratch makes the kernel allocate its own.
func (p *preparedConv) Run(out *tensor.Tensor, ins []*tensor.Tensor, scratch *tensor.Tensor) error {
	var bias, res *tensor.Tensor
	if p.bias >= 0 {
		bias = ins[p.bias]
	}
	if p.res >= 0 {
		res = ins[p.res]
	}
	var s32 []float32
	var s8 []int8
	if scratch != nil {
		if scratch.DType() == tensor.Int8 {
			s8 = scratch.Int8Data()
		} else {
			s32 = scratch.Data()
		}
	}
	p.conv.RunIntoEpilogue(out, ins[0], bias, res, s32, s8, p.postAct)
	return nil
}

// BatchNormOp is inference-mode batch normalization; inputs: data, gamma,
// beta, mean, variance. The fold pass removes it before execution.
type BatchNormOp struct{ Eps float32 }

func (o *BatchNormOp) Kind() string                               { return "batch_norm" }
func (o *BatchNormOp) InferShape(ins []tensor.Shape) tensor.Shape { return ins[0].Clone() }
func (o *BatchNormOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	ops.BatchNormInferenceInto(out, ins[0], ins[1], ins[2], ins[3], ins[4], o.Eps)
}
func (o *BatchNormOp) GPUFriendly() bool { return true }

// ActivationOp is an elementwise activation.
type ActivationOp struct {
	Act   ops.Activation // ActReLU or ActLeakyReLU
	Alpha float32        // leaky slope
}

func (o *ActivationOp) Kind() string {
	if o.Act == ops.ActLeakyReLU {
		return "leaky_relu"
	}
	return "relu"
}
func (o *ActivationOp) InferShape(ins []tensor.Shape) tensor.Shape { return ins[0].Clone() }
func (o *ActivationOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	if o.Act == ops.ActLeakyReLU {
		ops.LeakyReLUInto(out, ins[0], o.Alpha)
		return
	}
	ops.ReLUInto(out, ins[0])
}
func (o *ActivationOp) GPUFriendly() bool { return true }

// SigmoidOp is the logistic activation.
type SigmoidOp struct{}

func (o *SigmoidOp) Kind() string                               { return "sigmoid" }
func (o *SigmoidOp) InferShape(ins []tensor.Shape) tensor.Shape { return ins[0].Clone() }
func (o *SigmoidOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	ops.SigmoidInto(out, ins[0])
}
func (o *SigmoidOp) GPUFriendly() bool { return true }

// PoolOp is kernel×kernel max/avg pooling.
type PoolOp struct {
	PoolKind            ops.PoolKind
	Kernel, Stride, Pad int
}

func (o *PoolOp) Kind() string { return "pool2d" }
func (o *PoolOp) InferShape(ins []tensor.Shape) tensor.Shape {
	s := ins[0]
	oh := (s[2]+2*o.Pad-o.Kernel)/o.Stride + 1
	ow := (s[3]+2*o.Pad-o.Kernel)/o.Stride + 1
	return tensor.Shape{s[0], s[1], oh, ow}
}
func (o *PoolOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	ops.Pool2DInto(out, ins[0], o.PoolKind, o.Kernel, o.Stride, o.Pad)
}
func (o *PoolOp) GPUFriendly() bool { return true }

// GlobalPoolOp reduces each channel plane to 1×1.
type GlobalPoolOp struct{}

func (o *GlobalPoolOp) Kind() string { return "global_avg_pool" }
func (o *GlobalPoolOp) InferShape(ins []tensor.Shape) tensor.Shape {
	return tensor.Shape{ins[0][0], ins[0][1], 1, 1}
}
func (o *GlobalPoolOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	ops.GlobalAvgPoolInto(out, ins[0])
}
func (o *GlobalPoolOp) GPUFriendly() bool { return true }

// DenseOp is a fully connected layer; inputs: data, weight[, bias]. Act is
// an activation fused into the epilogue (FuseActivations), ActNone when the
// layer's output is used raw.
type DenseOp struct {
	Act ops.Activation
}

func (o *DenseOp) Kind() string { return "dense" }
func (o *DenseOp) InferShape(ins []tensor.Shape) tensor.Shape {
	return tensor.Shape{ins[0][0], ins[1][0]}
}
func (o *DenseOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	var bias *tensor.Tensor
	if len(ins) > 2 {
		bias = ins[2]
	}
	ops.DenseActInto(out, ins[0], ins[1], bias, o.Act)
}
func (o *DenseOp) GPUFriendly() bool { return true }

// SoftmaxOp normalizes along the last axis.
type SoftmaxOp struct{}

func (o *SoftmaxOp) Kind() string                               { return "softmax" }
func (o *SoftmaxOp) InferShape(ins []tensor.Shape) tensor.Shape { return ins[0].Clone() }
func (o *SoftmaxOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	ops.SoftmaxInto(out, ins[0])
}
func (o *SoftmaxOp) GPUFriendly() bool { return true }

// FlattenOp reshapes to (N, rest).
type FlattenOp struct{}

func (o *FlattenOp) Kind() string { return "flatten" }
func (o *FlattenOp) InferShape(ins []tensor.Shape) tensor.Shape {
	return tensor.Shape{ins[0][0], ins[0].NumElements() / ins[0][0]}
}
func (o *FlattenOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	// Row-major data is identical across the reshape, so copy raw storage
	// without materializing a reshaped view — the shapes differ only in
	// rank, and the session hot path must not allocate.
	in := ins[0]
	if out.DType() == tensor.Int8 && in.DType() == tensor.Int8 {
		out.SetScale(in.Scale())
	}
	tensor.CopyRange(out, 0, in, 0, in.Size())
}
func (o *FlattenOp) GPUFriendly() bool { return true }

// AddOp is an elementwise residual sum.
type AddOp struct{}

func (o *AddOp) Kind() string                               { return "add" }
func (o *AddOp) InferShape(ins []tensor.Shape) tensor.Shape { return ins[0].Clone() }
func (o *AddOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	ops.AddInto(out, ins[0], ins[1])
}
func (o *AddOp) GPUFriendly() bool { return true }

// FusedElementwiseOp is a chain of elementwise operators collapsed into a
// single memory pass (FuseElementwise). Inputs: the chain's source tensor,
// then one extra operand per EwAdd stage in order. Stage order is the
// original chain order, so results are bit-identical to running the chain
// as separate kernels.
type FusedElementwiseOp struct {
	Stages []ops.ElementwiseStage
}

func (o *FusedElementwiseOp) Kind() string                               { return "fused_elementwise" }
func (o *FusedElementwiseOp) InferShape(ins []tensor.Shape) tensor.Shape { return ins[0].Clone() }
func (o *FusedElementwiseOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	ops.FusedElementwiseInto(out, ins[0], ins[1:], o.Stages)
}
func (o *FusedElementwiseOp) GPUFriendly() bool { return true }

// ConcatOp joins along axis 1 for rank-4 (channels) or rank-3 (detection
// rows) tensors.
type ConcatOp struct{}

func (o *ConcatOp) Kind() string { return "concat" }
func (o *ConcatOp) InferShape(ins []tensor.Shape) tensor.Shape {
	out := ins[0].Clone()
	for _, s := range ins[1:] {
		out[1] += s[1]
	}
	return out
}
func (o *ConcatOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	if ins[0].Rank() == 4 {
		ops.ConcatInto(out, ins...)
		return
	}
	// Rank-3 detection concat: (batch, rows, width).
	s0 := ins[0].Shape()
	batch, width := s0[0], s0[2]
	total := out.Shape()[1]
	off := 0
	for _, t := range ins {
		rows := t.Shape()[1]
		for b := 0; b < batch; b++ {
			src := t.Data()[b*rows*width : (b+1)*rows*width]
			dst := out.Data()[(b*total+off)*width : (b*total+off+rows)*width]
			copy(dst, src)
		}
		off += rows
	}
}
func (o *ConcatOp) GPUFriendly() bool { return true }

// UpsampleOp is 2x nearest-neighbour upsampling.
type UpsampleOp struct{}

func (o *UpsampleOp) Kind() string { return "upsample" }
func (o *UpsampleOp) InferShape(ins []tensor.Shape) tensor.Shape {
	s := ins[0]
	return tensor.Shape{s[0], s[1], 2 * s[2], 2 * s[3]}
}
func (o *UpsampleOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	ops.UpsampleNearest2xInto(out, ins[0])
}
func (o *UpsampleOp) GPUFriendly() bool { return true }

// BoxNMSOp is the vision-specific non-maximum suppression (§3.1.1).
type BoxNMSOp struct{ Cfg vision.NMSConfig }

func (o *BoxNMSOp) Kind() string                               { return "box_nms" }
func (o *BoxNMSOp) InferShape(ins []tensor.Shape) tensor.Shape { return ins[0].Clone() }
func (o *BoxNMSOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	vision.BoxNMS(out, ins[0], o.Cfg)
}
func (o *BoxNMSOp) GPUFriendly() bool { return true }

// YoloDecodeOp decodes one YOLOv3 head.
type YoloDecodeOp struct {
	Anchors    [][2]float32
	NumClasses int
	Stride     int
}

func (o *YoloDecodeOp) Kind() string { return "yolo_decode" }
func (o *YoloDecodeOp) InferShape(ins []tensor.Shape) tensor.Shape {
	s := ins[0]
	return tensor.Shape{s[0], s[2] * s[3] * len(o.Anchors), vision.DetWidth}
}
func (o *YoloDecodeOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	vision.YoloDecode(out, ins[0], o.Anchors, o.NumClasses, o.Stride)
}
func (o *YoloDecodeOp) GPUFriendly() bool { return true }

// DeviceCopyOp is inserted by the placement pass between nodes on
// different devices (§3.1.2). Functionally the identity; the runtime
// charges it the CPU<->GPU handoff cost.
type DeviceCopyOp struct{}

func (o *DeviceCopyOp) Kind() string { return "device_copy" }
func (o *DeviceCopyOp) InferShape(ins []tensor.Shape) tensor.Shape {
	return ins[0].Clone()
}
func (o *DeviceCopyOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	tensor.Copy(out, ins[0])
}
func (o *DeviceCopyOp) GPUFriendly() bool { return true }

// CastOp converts its input to the target storage dtype, inserted by
// QuantizeGraph at precision boundaries. Functionally near-identity:
// narrowing to fp16 rounds each element to nearest-even; narrowing to int8
// quantizes symmetrically under Scale (set from calibration). Widening is
// exact.
type CastOp struct {
	To    tensor.DType
	Scale float32 // Int8 target's dequantization scale
}

func (o *CastOp) Kind() string                               { return "cast" }
func (o *CastOp) InferShape(ins []tensor.Shape) tensor.Shape { return ins[0].Clone() }
func (o *CastOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	if out.DType() == tensor.Int8 {
		out.SetScale(o.Scale)
	}
	tensor.Copy(out, ins[0])
}
func (o *CastOp) GPUFriendly() bool { return true }
