package ops

import (
	"math"

	"unigpu/internal/tensor"
)

// Every operator here computes into a caller-provided output tensor (the
// *Into form) and overwrites every element of it: the pooled graph runtime
// runs them against reused arena buffers, so the steady-state run loop never
// allocates.

// allFloat32 reports whether every tensor carries fp32 storage — the
// precondition for the raw-slice fast paths of the elementwise kernels
// below. Reduced-precision operands take the run-at-a-time loops instead
// (same arithmetic, widened on load, narrowed on store; see typedRun).
func allFloat32(ts ...*tensor.Tensor) bool {
	for _, t := range ts {
		if t != nil && t.DType() != tensor.Float32 {
			return false
		}
	}
	return true
}

// typedRun is how many elements the dtype-generic kernels handle at a time
// in a stack buffer: LoadF (or ViewF, which reads fp32 in place) a run,
// apply the fp32 arithmetic to it in the fp32 order, StoreF it, each a
// vector row primitive of the tensor package where the host has one. The
// results are those of a GetF/SetF loop. The activations and the add are
// one-stage chains of fusedElementwiseTypedInto; dense, pooling and the row
// conv's epilogue have no fp32 fork at all. (Where a kernel has its own
// loop it is written out: handing the buffer to a callback would move it
// to the heap.)
const typedRun = 256

// ReLUInto applies max(0, x) into out (which may alias in).
func ReLUInto(out, in *tensor.Tensor) {
	if !allFloat32(out, in) {
		fusedElementwiseTypedInto(out, in, nil, []ElementwiseStage{{Kind: EwReLU}})
		return
	}
	d, id := out.Data(), in.Data()
	for i, v := range id {
		if v < 0 {
			d[i] = 0
		} else {
			d[i] = v
		}
	}
}

// LeakyReLUInto applies the leaky rectifier into out.
func LeakyReLUInto(out, in *tensor.Tensor, alpha float32) {
	if !allFloat32(out, in) {
		fusedElementwiseTypedInto(out, in, nil, []ElementwiseStage{{Kind: EwLeakyReLU, Alpha: alpha}})
		return
	}
	d, id := out.Data(), in.Data()
	for i, v := range id {
		if v < 0 {
			d[i] = alpha * v
		} else {
			d[i] = v
		}
	}
}

// SigmoidInto applies the logistic function into out.
func SigmoidInto(out, in *tensor.Tensor) {
	if !allFloat32(out, in) {
		fusedElementwiseTypedInto(out, in, nil, []ElementwiseStage{{Kind: EwSigmoid}})
		return
	}
	d, id := out.Data(), in.Data()
	for i, v := range id {
		d[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// AddInto sums a and b elementwise into out.
func AddInto(out, a, b *tensor.Tensor) {
	if !a.Shape().Equal(b.Shape()) {
		panic("ops: Add shape mismatch " + a.Shape().String() + " vs " + b.Shape().String())
	}
	if !allFloat32(out, a, b) {
		fusedElementwiseTypedInto(out, a, []*tensor.Tensor{b}, []ElementwiseStage{{Kind: EwAdd}})
		return
	}
	d, ad, bd := out.Data(), a.Data(), b.Data()
	for i := range d {
		d[i] = ad[i] + bd[i]
	}
}

// BatchNormInferenceInto applies inference-mode batch norm into out.
func BatchNormInferenceInto(out, in, gamma, beta, mean, variance *tensor.Tensor, eps float32) {
	s := in.Shape()
	c, hw := s[1], s[2]*s[3]
	d, id := out.Data(), in.Data()
	gd, bd, md, vd := gamma.Data(), beta.Data(), mean.Data(), variance.Data()
	for n := 0; n < s[0]; n++ {
		for ci := 0; ci < c; ci++ {
			scale := gd[ci] / float32(math.Sqrt(float64(vd[ci]+eps)))
			shift := bd[ci] - md[ci]*scale
			base := (n*c + ci) * hw
			for i := 0; i < hw; i++ {
				d[base+i] = id[base+i]*scale + shift
			}
		}
	}
}

// FoldBatchNorm rewrites (gamma, beta, mean, var) into the equivalent
// (scale, shift) pair used after constant pre-computation (§3.2.3
// "simplifying inference for batch-norm").
func FoldBatchNorm(gamma, beta, mean, variance *tensor.Tensor, eps float32) (scale, shift *tensor.Tensor) {
	c := gamma.Shape()[0]
	scale, shift = tensor.New(c), tensor.New(c)
	for i := 0; i < c; i++ {
		sc := gamma.Data()[i] / float32(math.Sqrt(float64(variance.Data()[i]+eps)))
		scale.Data()[i] = sc
		shift.Data()[i] = beta.Data()[i] - mean.Data()[i]*sc
	}
	return scale, shift
}

// SoftmaxInto normalizes along the last axis into out (may alias in).
func SoftmaxInto(out, in *tensor.Tensor) {
	s := in.Shape()
	last := s[len(s)-1]
	rows := in.Size() / last
	d, id := out.Data(), in.Data()
	for r := 0; r < rows; r++ {
		src := id[r*last : (r+1)*last]
		row := d[r*last : (r+1)*last]
		maxV := src[0]
		for _, v := range src {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range src {
			e := math.Exp(float64(v - maxV))
			row[i] = float32(e)
			sum += e
		}
		for i := range row {
			row[i] = float32(float64(row[i]) / sum)
		}
	}
}

// ConcatInto joins tensors along the channel axis into out.
func ConcatInto(out *tensor.Tensor, ts ...*tensor.Tensor) {
	if len(ts) == 0 {
		panic("ops: Concat of nothing")
	}
	s0 := ts[0].Shape()
	n, h, w := s0[0], s0[2], s0[3]
	totalC := out.Shape()[1]
	for _, t := range ts {
		s := t.Shape()
		if s[0] != n || s[2] != h || s[3] != w {
			panic("ops: Concat non-channel dims must match")
		}
	}
	cOff := 0
	for _, t := range ts {
		chw := t.Shape()[1] * h * w
		for ni := 0; ni < n; ni++ {
			tensor.CopyRange(out, (ni*totalC+cOff)*h*w, t, ni*chw, chw)
		}
		cOff += t.Shape()[1]
	}
}

// UpsampleNearest2xInto doubles spatial resolution into out.
func UpsampleNearest2xInto(out, in *tensor.Tensor) {
	s := in.Shape()
	n, c, h, w := s[0], s[1], s[2], s[3]
	if !allFloat32(out, in) {
		var src [typedRun / 2]float32
		var dst [typedRun]float32
		for row := 0; row < n*c*h; row++ { // input row -> output rows 2*row, 2*row+1
			for x0 := 0; x0 < w; x0 += len(src) {
				run := src[:min(len(src), w-x0)]
				in.LoadF(run, row*w+x0)
				for i, v := range run {
					dst[2*i], dst[2*i+1] = v, v
				}
				out.StoreF(2*row*2*w+2*x0, dst[:2*len(run)])
				out.StoreF((2*row+1)*2*w+2*x0, dst[:2*len(run)])
			}
		}
		return
	}
	od, id := out.Data(), in.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			iBase := (ni*c + ci) * h * w
			oBase := (ni*c + ci) * 4 * h * w
			for y := 0; y < 2*h; y++ {
				srcRow := id[iBase+(y/2)*w : iBase+(y/2)*w+w]
				dstRow := od[oBase+y*2*w : oBase+(y+1)*2*w]
				for x := 0; x < 2*w; x++ {
					dstRow[x] = srcRow[x/2]
				}
			}
		}
	}
}
