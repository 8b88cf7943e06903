package ops

import (
	"math"

	"unigpu/internal/tensor"
)

// PoolKind selects the pooling reduction.
type PoolKind int

const (
	MaxPool PoolKind = iota
	AvgPool
)

// Pool2D applies kernel×kernel pooling with the given stride and padding
// over NCHW input. Average pooling excludes padding from the divisor
// (count_include_pad=false), matching GluonCV defaults.
func Pool2D(in *tensor.Tensor, kind PoolKind, kernel, stride, pad int) *tensor.Tensor {
	s := in.Shape()
	oh := (s[2]+2*pad-kernel)/stride + 1
	ow := (s[3]+2*pad-kernel)/stride + 1
	out := tensor.New(s[0], s[1], oh, ow)
	Pool2DInto(out, in, kind, kernel, stride, pad)
	return out
}

// Pool2DInto applies pooling into a caller-provided (N, C, OutH, OutW)
// tensor.
func Pool2DInto(out, in *tensor.Tensor, kind PoolKind, kernel, stride, pad int) {
	s := in.Shape()
	n, c, h, w := s[0], s[1], s[2], s[3]
	oh := (h+2*pad-kernel)/stride + 1
	ow := (w+2*pad-kernel)/stride + 1
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					var acc float64
					count := 0
					if kind == MaxPool {
						acc = math.Inf(-1)
					}
					for ky := 0; ky < kernel; ky++ {
						iy := y*stride - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kernel; kx++ {
							ix := x*stride - pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							v := float64(in.At(ni, ci, iy, ix))
							if kind == MaxPool {
								acc = math.Max(acc, v)
							} else {
								acc += v
							}
							count++
						}
					}
					if kind == AvgPool && count > 0 {
						acc /= float64(count)
					}
					out.Set(float32(acc), ni, ci, y, x)
				}
			}
		}
	}
}

// GlobalAvgPool reduces each channel plane to one value: (N,C,H,W)->(N,C,1,1).
func GlobalAvgPool(in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	out := tensor.New(s[0], s[1], 1, 1)
	GlobalAvgPoolInto(out, in)
	return out
}

// GlobalAvgPoolInto reduces each channel plane to one value into out.
func GlobalAvgPoolInto(out, in *tensor.Tensor) {
	s := in.Shape()
	n, c, hw := s[0], s[1], s[2]*s[3]
	if !allFloat32(out, in) {
		var buf [typedRun]float32
		for p := 0; p < n*c; p++ {
			var sum float64
			for i := 0; i < hw; i += typedRun {
				run := buf[:min(typedRun, hw-i)]
				in.LoadF(run, p*hw+i)
				for _, v := range run {
					sum += float64(v)
				}
			}
			out.SetF(p, float32(sum/float64(hw)))
		}
		return
	}
	id, od := in.Data(), out.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * hw
			var sum float64
			for i := 0; i < hw; i++ {
				sum += float64(id[base+i])
			}
			od[ni*c+ci] = float32(sum / float64(hw))
		}
	}
}
