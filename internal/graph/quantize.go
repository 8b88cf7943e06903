package graph

import (
	"fmt"
	"math"

	"unigpu/internal/obs"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

// QuantMode selects the mixed-precision policy of QuantizeGraph.
type QuantMode int

const (
	// QuantOff leaves the graph in full precision (the default: fp32
	// stays bit-identical to the goldens).
	QuantOff QuantMode = iota
	// QuantFP16 stores every quantizable intermediate in binary16 and runs
	// convolutions over fp16 storage (fp32 accumulate).
	QuantFP16
	// QuantINT8 additionally runs convolutions through the symmetric int8
	// kernels (per-tensor input scales from calibration, per-channel weight
	// scales at prepack); non-conv intermediates ride fp16 carriers.
	QuantINT8
	// QuantAuto prices fp32/fp16/int8 per convolution with the roofline
	// model and picks the cheapest, casts included; carriers are fp16.
	QuantAuto
)

func (m QuantMode) String() string {
	switch m {
	case QuantFP16:
		return "fp16"
	case QuantINT8:
		return "int8"
	case QuantAuto:
		return "auto"
	}
	return "fp32"
}

// ParseQuantMode recognizes the -dtype flag values.
func ParseQuantMode(s string) (QuantMode, bool) {
	switch s {
	case "", "fp32", "float32", "off":
		return QuantOff, true
	case "fp16", "float16", "half":
		return QuantFP16, true
	case "int8":
		return QuantINT8, true
	case "auto":
		return QuantAuto, true
	}
	return QuantOff, false
}

// QuantizeOptions configures QuantizeGraph.
type QuantizeOptions struct {
	Mode QuantMode
	// Device prices the per-conv dtype choice in QuantAuto mode (nil falls
	// back to fp16 for every conv).
	Device *sim.Device
	// CalibBatches is the number of seeded random batches executed to
	// record per-tensor ranges (default 2; int8 scales come from these).
	CalibBatches int
	// CalibSeed seeds the calibration inputs (default 7).
	CalibSeed int64
}

// QuantizeStats reports what the pass did.
type QuantizeStats struct {
	FP16Nodes     int // intermediates retagged to binary16 carriers
	INT8Convs     int // convolutions computing over int8 storage
	FP16Convs     int // convolutions computing over fp16 storage
	CastsInserted int // explicit cast nodes added
	CastsFused    int // casts avoided by narrowing in the producer's store
}

// fp32OnlyKinds are operators that must see full-precision inputs: the
// vision post-processing pipelines and the numerically delicate
// normalizations read raw float32 buffers, and cast/device_copy are
// precision-transparent plumbing the pass never retags.
var fp32OnlyKinds = map[string]bool{
	"softmax": true, "batch_norm": true, "dense": true,
	"box_nms": true, "multibox_detection": true, "yolo_decode": true,
	"device_copy": true, "cast": true,
}

// carrierKinds are operators whose output storage may be narrowed to
// binary16: their kernels are dtype-generic (widen on load, narrow on
// store), so retagging the node fuses the cast into the producer's store.
var carrierKinds = map[string]bool{
	"conv2d": true, "relu": true, "leaky_relu": true, "sigmoid": true,
	"add": true, "fused_elementwise": true, "pool2d": true,
	"global_avg_pool": true, "upsample": true, "concat": true,
	"flatten": true,
}

// QuantizeGraph lowers the graph to the requested mixed-precision policy:
// it calibrates per-tensor ranges on seeded random batches, retags
// quantizable intermediates to fp16 carriers, assigns each convolution a
// compute dtype, and inserts the minimal set of cast nodes so every
// kernel sees the storage type it expects. Graph outputs always stay
// float32, and the pass refuses to cast across a device_copy (the cast
// lands on the consumer side of the copy). QuantOff is a guaranteed
// no-op. Run it after Optimize and before SelectConvKernels.
func QuantizeGraph(g *Graph, opts QuantizeOptions) (QuantizeStats, error) {
	var st QuantizeStats
	if opts.Mode == QuantOff {
		return st, nil
	}
	sp := obs.Start("graph.quantize", obs.KVInt("nodes", len(g.Nodes)))
	defer sp.End()
	if opts.CalibBatches <= 0 {
		opts.CalibBatches = 2
	}
	if opts.CalibSeed == 0 {
		opts.CalibSeed = 7
	}

	maxAbs, err := calibrate(g, opts)
	if err != nil {
		return st, err
	}

	outputs := map[*Node]bool{}
	for _, o := range g.Outputs {
		outputs[o] = true
	}

	// Retag carriers: quantizable intermediates store binary16. Graph
	// outputs keep fp32 so callers always receive full-precision tensors.
	for _, n := range g.OpNodes() {
		if outputs[n] || !carrierKinds[n.Op.Kind()] {
			continue
		}
		if n.Op.Kind() == "concat" && len(n.OutShape) != 4 {
			continue // the rank-3 detection concat reads raw fp32 rows
		}
		n.DType = tensor.Float16
		st.FP16Nodes++
	}

	// Assign each convolution its compute dtype.
	for _, n := range g.OpNodes() {
		convOp, ok := opAs[*ConvOp](n)
		if !ok {
			continue
		}
		switch opts.Mode {
		case QuantFP16:
			convOp.DType = tensor.Float16
		case QuantINT8:
			convOp.DType = tensor.Int8
		case QuantAuto:
			convOp.DType = pickConvDType(convOp.W, n, opts.Device)
		}
		switch convOp.DType {
		case tensor.Int8:
			st.INT8Convs++
		case tensor.Float16:
			st.FP16Convs++
		}
	}

	// Insert casts where storage requirements are exact. Two sites:
	// a conv's data input must match its compute dtype bit-for-bit (the
	// kernels read typed buffers), and fp32-only operators must see
	// float32. Everything else widens through the generic accessors.
	// Casts are deduplicated per (producer, dtype) so shared tensors are
	// converted once, and a cast never lands between a device_copy and its
	// producer — the consumer-side edge gets it instead.
	castCache := map[castKey]*Node{}
	for _, n := range g.OpNodes() {
		kind := n.Op.Kind()
		if kind == "cast" {
			continue
		}
		convOp, isConv := opAs[*ConvOp](n)
		for ai, in := range n.Inputs {
			var want tensor.DType
			switch {
			case isConv && ai == 0:
				want = convOp.DType
			case fp32OnlyKinds[kind] && kind != "device_copy":
				want = tensor.Float32
			default:
				continue // dtype-generic consumer: no exact requirement
			}
			have := dtypeOf(in)
			if have == want {
				if isConv && ai == 0 && want == tensor.Float16 && in.Op != nil && !in.IsConstant() {
					// The producer's store already narrows to fp16: the
					// cast fused into its epilogue instead of existing.
					st.CastsFused++
				}
				continue
			}
			scale := float32(0)
			if want == tensor.Int8 {
				scale = tensor.Int8Scale(calibRange(maxAbs[in]))
			}
			key := castKey{from: in, to: want, scale: scale}
			cast := castCache[key]
			if cast == nil {
				cast = g.Apply(in.Name+"_cast_"+want.String(), &CastOp{To: want, Scale: scale}, in)
				cast.DType = want
				cast.QScale = scale
				cast.Device = n.Device
				castCache[key] = cast
				st.CastsInserted++
			}
			n.Inputs[ai] = cast
		}
	}

	// Dense weights ride binary16 constants: half the weight traffic for a
	// layer that is memory-bound on every zoo model. Only exclusively-owned
	// constants convert, so a shared weight never changes under another
	// consumer. (Conv weights narrow at prepack time instead.)
	if opts.Mode != QuantOff {
		cons := g.Consumers()
		for _, n := range g.OpNodes() {
			if n.Op.Kind() != "dense" || len(n.Inputs) < 2 {
				continue
			}
			w := n.Inputs[1]
			if w.IsConstant() && len(cons[w]) == 1 && w.Value.DType() == tensor.Float32 {
				w.Value = tensor.Convert(w.Value, tensor.Float16, 0)
				w.DType = tensor.Float16
			}
		}
	}

	resort(g)
	sp.SetAttrs(obs.KVInt("casts", st.CastsInserted), obs.KVInt("fp16_nodes", st.FP16Nodes))
	return st, nil
}

// castKey deduplicates cast nodes per converted tensor.
type castKey struct {
	from  *Node
	to    tensor.DType
	scale float32
}

// dtypeOf is the storage type a node's value presents to consumers.
func dtypeOf(n *Node) tensor.DType { return n.StorageDType() }

// DTypeConvScale is the ratio of total roofline conv time at each conv's
// assigned compute dtype to the same kernels priced at fp32 — the factor
// quantization scales the tuned conv milliseconds by on this device. A
// full-precision graph (or nil device) returns exactly 1.
func DTypeConvScale(g *Graph, d *sim.Device) float64 {
	if d == nil {
		return 1
	}
	var base, quant float64
	for _, n := range g.OpNodes() {
		convOp, ok := opAs[*ConvOp](n)
		if !ok {
			continue
		}
		k := convOp.Kernel
		if k == ops.KernelAuto {
			k = ops.DefaultKernel(convOp.W)
		}
		if convOp.DType == tensor.Int8 {
			// The simulated device's int8 path is the quantized GEMM whatever
			// loop the host runs (see pickConvDType), so the host's depthwise
			// choice must not move the simulated clock.
			k = ops.KernelGEMM
		}
		f, e, eb, eff := kernelCost(convOp.W, k, tensor.Float32)
		base += d.AlgoSeconds(f, e, eb, eff)
		f, e, eb, eff = kernelCost(convOp.W, k, convOp.DType)
		quant += d.AlgoSeconds(f, e, eb, eff)
	}
	if base <= 0 {
		return 1
	}
	return quant / base
}

// pickConvDType prices one convolution at each storage dtype on the
// device — cheapest kernel via the roofline model, plus the cast pass
// needed to bring the fp16 carrier input into that dtype — and returns the
// cheapest. Ties break toward the wider type.
func pickConvDType(w ops.ConvWorkload, n *Node, d *sim.Device) tensor.DType {
	if d == nil {
		return tensor.Float16
	}
	inElems := float64(w.N * w.CIn * w.H * w.W)
	best, bestSec := tensor.Float16, math.Inf(1)
	for _, dt := range []tensor.DType{tensor.Float32, tensor.Float16, tensor.Int8} {
		sec := math.Inf(1)
		for _, k := range ops.ConvKernels {
			if !ops.KernelSupported(k, w) {
				continue
			}
			if dt == tensor.Int8 && k != ops.KernelGEMM {
				continue
			}
			flops, elems, eff := ops.KernelProfile(w, k)
			if s := d.AlgoSeconds(flops, elems, float64(dt.Size()), eff); s < sec {
				sec = s
			}
		}
		if dt != tensor.Float16 {
			// The carrier is fp16: running at another dtype pays a cast
			// (read fp16 + write dt) over the conv's input activation.
			sec += sim.CostFlopsBytes(d, 0, inElems, float64(2+dt.Size())/2, 1)
		}
		if sec < bestSec-1e-12 {
			best, bestSec = dt, sec
		}
	}
	return best
}

// calibrate executes the (still full-precision) graph on seeded random
// inputs and records each value's observed max |v| per batch — the ranges
// int8 input scales quantize against.
func calibrate(g *Graph, opts QuantizeOptions) (map[*Node][]float64, error) {
	need := opts.Mode == QuantINT8 || opts.Mode == QuantAuto
	if !need {
		return nil, nil
	}
	ranges := map[*Node][]float64{}
	vals := map[*Node]*tensor.Tensor{}
	for b := 0; b < opts.CalibBatches; b++ {
		for _, n := range g.Nodes {
			switch {
			case n.IsInput():
				t := tensor.New(n.OutShape...)
				t.FillRandom(opts.CalibSeed + int64(b)*1009 + int64(n.ID))
				vals[n] = t
			case n.IsConstant():
				vals[n] = n.Value
			default:
				ins := make([]*tensor.Tensor, len(n.Inputs))
				for i, in := range n.Inputs {
					ins[i] = vals[in]
					if ins[i] == nil {
						return nil, fmt.Errorf("graph: quantize calibration: node %q input %q has no value", n.Name, in.Name)
					}
				}
				vals[n] = Eval(n, ins)
			}
			t := vals[n]
			if t == nil || n.IsConstant() {
				continue
			}
			m := 0.0
			sz := t.Size()
			for i := 0; i < sz; i++ {
				v := math.Abs(float64(t.GetF(i)))
				if v > m {
					m = v
				}
			}
			ranges[n] = append(ranges[n], m)
		}
	}
	return ranges, nil
}

// calibRange reduces per-batch max-abs observations to the clip range:
// the max over batches.
func calibRange(batchMax []float64) float64 {
	m := 0.0
	for _, v := range batchMax {
		if v > m {
			m = v
		}
	}
	return m
}
