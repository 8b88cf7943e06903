package ops

import (
	"unigpu/internal/par"
	"unigpu/internal/tensor"
)

// Conv2DWinograd computes a stride-1 3x3 convolution with the Winograd
// F(2x2, 3x3) minimal-filtering algorithm: each 2x2 output tile costs 16
// multiplies in the transform domain instead of 36 — a 2.25x reduction in
// multiplications. This is the algorithm behind the vendor libraries'
// hand-tuned 3x3 kernels (clDNN, cuDNN), and the reason the fitted baseline
// profiles in internal/baselines can exceed 1.0 "efficiency" against
// direct-convolution flop counting.
//
// Y = Aᵀ [ (G g Gᵀ) ⊙ (Bᵀ d B) ] A   per 4x4 input tile.
func Conv2DWinograd(in, weight, bias *tensor.Tensor, w ConvWorkload) *tensor.Tensor {
	if w.KH != 3 || w.KW != 3 || w.StrideH != 1 || w.StrideW != 1 || w.Groups > 1 {
		panic("ops: Winograd F(2x2,3x3) requires a dense 3x3 stride-1 convolution")
	}
	oh, ow := w.OutH(), w.OutW()
	out := tensor.New(w.N, w.COut, oh, ow)

	// Pre-transform all filters: U[co][ci] = G g Gᵀ (4x4).
	type m4 = [4][4]float32
	U := make([][]m4, w.COut)
	for co := 0; co < w.COut; co++ {
		U[co] = make([]m4, w.CIn)
		for ci := 0; ci < w.CIn; ci++ {
			var g [3][3]float32
			for y := 0; y < 3; y++ {
				for x := 0; x < 3; x++ {
					g[y][x] = weight.At(co, ci, y, x)
				}
			}
			U[co][ci] = filterTransform(g)
		}
	}

	tilesY, tilesX := (oh+1)/2, (ow+1)/2
	for job := 0; job < w.N*w.COut; job++ { // the reference stays on one goroutine
		n, co := job/w.COut, job%w.COut
		var b float32
		if bias != nil {
			b = bias.Data()[co]
		}
		for ty := 0; ty < tilesY; ty++ {
			for tx := 0; tx < tilesX; tx++ {
				// Accumulate in the transform domain across input channels.
				var acc m4
				for ci := 0; ci < w.CIn; ci++ {
					var d m4
					for y := 0; y < 4; y++ {
						iy := ty*2 - w.PadH + y
						for x := 0; x < 4; x++ {
							ix := tx*2 - w.PadW + x
							if iy >= 0 && iy < w.H && ix >= 0 && ix < w.W {
								d[y][x] = in.At(n, ci, iy, ix)
							}
						}
					}
					v := dataTransform(d)
					u := U[co][ci]
					for y := 0; y < 4; y++ {
						for x := 0; x < 4; x++ {
							acc[y][x] += u[y][x] * v[y][x] // the 16 multiplies
						}
					}
				}
				y2 := outputTransform(acc)
				for dy := 0; dy < 2; dy++ {
					oy := ty*2 + dy
					if oy >= oh {
						continue
					}
					for dx := 0; dx < 2; dx++ {
						ox := tx*2 + dx
						if ox >= ow {
							continue
						}
						out.Set(applyActivation(y2[dy][dx]+b, w.FusedActivation), n, co, oy, ox)
					}
				}
			}
		}
	}
	return out
}

// filterTransform computes G g Gᵀ with
// G = [1 0 0; 1/2 1/2 1/2; 1/2 -1/2 1/2; 0 0 1].
func filterTransform(g [3][3]float32) [4][4]float32 {
	var tmp [4][3]float32
	for c := 0; c < 3; c++ {
		g0, g1, g2 := g[0][c], g[1][c], g[2][c]
		tmp[0][c] = g0
		tmp[1][c] = 0.5 * (g0 + g1 + g2)
		tmp[2][c] = 0.5 * (g0 - g1 + g2)
		tmp[3][c] = g2
	}
	var u [4][4]float32
	for r := 0; r < 4; r++ {
		t0, t1, t2 := tmp[r][0], tmp[r][1], tmp[r][2]
		u[r][0] = t0
		u[r][1] = 0.5 * (t0 + t1 + t2)
		u[r][2] = 0.5 * (t0 - t1 + t2)
		u[r][3] = t2
	}
	return u
}

// dataTransform computes Bᵀ d B with
// Bᵀ = [1 0 -1 0; 0 1 1 0; 0 -1 1 0; 0 1 0 -1].
func dataTransform(d [4][4]float32) [4][4]float32 {
	var tmp [4][4]float32
	for c := 0; c < 4; c++ {
		d0, d1, d2, d3 := d[0][c], d[1][c], d[2][c], d[3][c]
		tmp[0][c] = d0 - d2
		tmp[1][c] = d1 + d2
		tmp[2][c] = d2 - d1
		tmp[3][c] = d1 - d3
	}
	var v [4][4]float32
	for r := 0; r < 4; r++ {
		t0, t1, t2, t3 := tmp[r][0], tmp[r][1], tmp[r][2], tmp[r][3]
		v[r][0] = t0 - t2
		v[r][1] = t1 + t2
		v[r][2] = t2 - t1
		v[r][3] = t1 - t3
	}
	return v
}

// outputTransform computes Aᵀ m A with Aᵀ = [1 1 1 0; 0 1 -1 -1].
func outputTransform(m [4][4]float32) [2][2]float32 {
	var tmp [2][4]float32
	for c := 0; c < 4; c++ {
		m0, m1, m2, m3 := m[0][c], m[1][c], m[2][c], m[3][c]
		tmp[0][c] = m0 + m1 + m2
		tmp[1][c] = m1 - m2 - m3
	}
	var y [2][2]float32
	for r := 0; r < 2; r++ {
		t0, t1, t2, t3 := tmp[r][0], tmp[r][1], tmp[r][2], tmp[r][3]
		y[r][0] = t0 + t1 + t2
		y[r][1] = t1 - t2 - t3
	}
	return y
}

// WinogradMultiplyReduction is the multiplication saving of F(2x2,3x3):
// 36 multiplies per 2x2 output tile direct vs 16 in the transform domain.
const WinogradMultiplyReduction = 36.0 / 16.0

// WinogradSupported reports whether the F(2x2,3x3) kernel applies to w.
func WinogradSupported(w ConvWorkload) bool {
	return w.KH == 3 && w.KW == 3 && w.StrideH == 1 && w.StrideW == 1 && w.Groups <= 1
}

// WinogradPackedElems returns the length of the packed transformed-filter
// buffer produced by PackConvWeightsWinograd.
func WinogradPackedElems(w ConvWorkload) int { return w.COut * w.CIn * 16 }

// PackConvWeightsWinograd pre-transforms all 3x3 filters into the Winograd
// domain: U[co][ci] = G g Gᵀ, stored flat at (co*CIn+ci)*16 + y*4 + x.
// Done once at plan time and shared read-only across sessions.
func PackConvWeightsWinograd(weight *tensor.Tensor, w ConvWorkload) []float32 {
	wd := weight.Data()
	packed := make([]float32, WinogradPackedElems(w))
	for co := 0; co < w.COut; co++ {
		for ci := 0; ci < w.CIn; ci++ {
			var g [3][3]float32
			base := (co*w.CIn + ci) * 9
			for y := 0; y < 3; y++ {
				for x := 0; x < 3; x++ {
					g[y][x] = wd[base+y*3+x]
				}
			}
			u := filterTransform(g)
			uBase := (co*w.CIn + ci) * 16
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					packed[uBase+y*4+x] = u[y][x]
				}
			}
		}
	}
	return packed
}

// Conv2DWinogradInto is Conv2DWinograd computing into a caller-provided
// output tensor; it transforms the filters on the fly (allocating) and
// delegates to the packed kernel. Results are bit-identical to
// Conv2DWinograd and agree with the direct kernel to within float32
// rounding of the transform arithmetic (~1e-4 relative; see the golden
// tolerance tests).
func Conv2DWinogradInto(out, in, weight, bias *tensor.Tensor, w ConvWorkload) {
	convWinograd(&convSink[float32, float32]{out: out.Data(), bias: biasData(bias), act: w.FusedActivation},
		in.Data(), PackConvWeightsWinograd(weight, w), w)
}

// convWinograd runs F(2x2,3x3) with pre-transformed filters (from
// PackConvWeightsWinograd) into the sink. It allocates nothing: all tile
// state lives in fixed-size stack arrays.
func convWinograd[O convOut, R convElem](sink *convSink[O, R], ind, packedU []float32, w ConvWorkload) {
	if !WinogradSupported(w) {
		panic("ops: Winograd F(2x2,3x3) requires a dense 3x3 stride-1 convolution")
	}
	par.For(w.N*w.COut, winogradJob[O, R]{*sink, ind, packedU, w})
}

// winogradJob is convWinograd's fan-out: job i is output plane (n, co) = i.
type winogradJob[O convOut, R convElem] struct {
	sink         convSink[O, R]
	ind, packedU []float32
	w            ConvWorkload
}

func (j winogradJob[O, R]) Run(job int) {
	s, w, ind, packedU := &j.sink, &j.w, j.ind, j.packedU
	oh, ow := w.OutH(), w.OutW()
	tilesY, tilesX := (oh+1)/2, (ow+1)/2
	n, co := job/w.COut, job%w.COut
	var b float32
	if s.bias != nil {
		b = s.bias[co]
	}
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < tilesX; tx++ {
			var acc [4][4]float32
			for ci := 0; ci < w.CIn; ci++ {
				var d [4][4]float32
				iPlane := (n*w.CIn + ci) * w.H * w.W
				for y := 0; y < 4; y++ {
					iy := ty*2 - w.PadH + y
					if iy < 0 || iy >= w.H {
						continue
					}
					iRow := iPlane + iy*w.W
					for x := 0; x < 4; x++ {
						ix := tx*2 - w.PadW + x
						if ix >= 0 && ix < w.W {
							d[y][x] = ind[iRow+ix]
						}
					}
				}
				v := dataTransform(d)
				u := packedU[(co*w.CIn+ci)*16:]
				for y := 0; y < 4; y++ {
					for x := 0; x < 4; x++ {
						acc[y][x] += u[y*4+x] * v[y][x]
					}
				}
			}
			y2 := outputTransform(acc)
			for dy := 0; dy < 2; dy++ {
				oy := ty*2 + dy
				if oy >= oh {
					continue
				}
				oRow := ((n*w.COut+co)*oh + oy) * ow
				for dx := 0; dx < 2; dx++ {
					ox := tx*2 + dx
					if ox >= ow {
						continue
					}
					s.out[oRow+ox] = narrow[O](convEpilogue(y2[dy][dx]+b, s.res, oRow+ox, s.act, s.postAct))
				}
			}
		}
	}
}
