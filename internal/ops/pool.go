package ops

import (
	"math"

	"unigpu/internal/par"
	"unigpu/internal/tensor"
)

// PoolKind selects the pooling reduction.
type PoolKind int

const (
	MaxPool PoolKind = iota
	AvgPool
)

// poolWindowElems is the stack room for the padded input rows under one
// output row: three rows of a 339-wide plane. A wider window takes the heap.
const poolWindowElems = 1024

// Pool2DInto applies kernel×kernel pooling with the given stride and padding
// over NCHW input into a caller-provided (N, C, OutH, OutW) tensor of any
// storage dtype. Average pooling excludes padding from the divisor
// (count_include_pad=false), matching GluonCV defaults. The planes are
// fanned out (independent, each job's window on its own stack), a plane
// goes an output row at a time. The
// input rows its windows touch are widened (LoadF) into a buffer whose
// padding columns hold the reduction's identity, -Inf for max and -0 for the
// sum (x + -0 is x for every x, -0 included), so every tap is in bounds:
// taps run outermost and outputs innermost, and the loop over a row has no
// dependent chain. Padding rows are skipped. The average still folds an
// output's taps in ascending (ky, kx) order into a float64 and divides by
// the in-bounds taps only. Max pooling keeps math.Max's rules (+0 above -0,
// a window of padding gives -Inf): the built-in max has them too except for
// what a NaN leaves behind, and a NaN result is rare enough to fold again
// with math.Max itself.
func Pool2DInto(out, in *tensor.Tensor, kind PoolKind, kernel, stride, pad int) {
	s := in.Shape()
	oh, ow := (s[2]+2*pad-kernel)/stride+1, (s[3]+2*pad-kernel)/stride+1
	per := max(1, convRowJobMACs/(oh*ow*kernel*kernel)) // small planes go several to a job, as in convRows
	par.For((s[0]*s[1]+per-1)/per, poolJob{out, in, kind, kernel, stride, pad, oh, ow, per})
}

// poolJob is Pool2DInto's fan-out: job i pools planes [i*per, (i+1)*per).
type poolJob struct {
	out, in                          *tensor.Tensor
	kind                             PoolKind
	kernel, stride, pad, oh, ow, per int
}

func (j poolJob) Run(job int) {
	out, in, kind, kernel, stride, pad, oh, ow := j.out, j.in, j.kind, j.kernel, j.stride, j.pad, j.oh, j.ow
	planes, h, w := in.Shape()[0]*in.Shape()[1], in.Shape()[2], in.Shape()[3]
	identity := math.Copysign(0, -1)
	if kind == MaxPool {
		identity = math.Inf(-1)
	}
	wp := w + 2*pad
	var stack [poolWindowElems]float32
	win := stack[:]
	if kernel*wp > len(win) {
		win = make([]float32, kernel*wp)
	}
	fillRow(win[:kernel*wp], float32(identity))
	var accs [typedRun]float64
	var valbuf [typedRun]float32
	for p := job * j.per; p < min(planes, (job+1)*j.per); p++ {
		for y := 0; y < oh; y++ {
			ky0, ky1 := clampKernelRange(y*stride-pad, h, kernel)
			for ky := ky0; ky < ky1; ky++ {
				in.LoadF(win[(ky-ky0)*wp+pad:][:w], (p*h+y*stride-pad+ky)*w)
			}
			for x0 := 0; x0 < ow; x0 += typedRun {
				vals := valbuf[:min(typedRun, ow-x0)]
				if kind == MaxPool {
					// The maximum of float32 values is one of them: no float64.
					fillRow(vals, float32(identity))
					for ky := 0; ky < ky1-ky0; ky++ {
						for kx := 0; kx < kernel; kx++ {
							j := ky*wp + x0*stride + kx
							for t := range vals {
								vals[t] = max(vals[t], win[j+t*stride])
							}
						}
					}
					for t, v := range vals {
						if v != v {
							m := identity
							for ky := 0; ky < ky1-ky0; ky++ {
								for _, e := range win[ky*wp+(x0+t)*stride:][:kernel] {
									m = math.Max(m, float64(e))
								}
							}
							vals[t] = float32(m)
						}
					}
				} else {
					acc := accs[:len(vals)]
					fillRow(acc, identity)
					for ky := 0; ky < ky1-ky0; ky++ {
						for kx := 0; kx < kernel; kx++ {
							j := ky*wp + x0*stride + kx
							for t := range acc {
								acc[t] += float64(win[j+t*stride])
							}
						}
					}
					for t, v := range acc {
						kx0, kx1 := clampKernelRange((x0+t)*stride-pad, w, kernel)
						if count := (ky1 - ky0) * (kx1 - kx0); count > 0 {
							v /= float64(count)
						} else {
							v = 0 // a window of padding, not the sum's -0
						}
						vals[t] = float32(v)
					}
				}
				out.StoreF((p*oh+y)*ow+x0, vals)
			}
		}
	}
}

// GlobalAvgPoolInto reduces each channel plane to one value into out: a
// float64 sum in element order over float32 views of the plane, a run at a
// time, whatever the storage dtypes.
func GlobalAvgPoolInto(out, in *tensor.Tensor) {
	s := in.Shape()
	planes, hw := s[0]*s[1], s[2]*s[3]
	var buf [typedRun]float32
	for p := 0; p < planes; p++ {
		var sum float64
		for i := 0; i < hw; i += typedRun {
			for _, v := range in.ViewF(buf[:], p*hw+i, min(typedRun, hw-i)) {
				sum += float64(v)
			}
		}
		out.SetF(p, float32(sum/float64(hw)))
	}
}
