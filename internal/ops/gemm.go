package ops

import (
	"math"
	"unsafe"

	"unigpu/internal/tensor"
)

// im2col-GEMM convolution backend, one pipeline for every storage dtype.
//
// The convolution is lowered per (batch, group) to C = A * B where
//
//	A is the (coutPerG x K) weight matrix, K = cinPerG*KH*KW,
//	B is the (K x OutH*OutW) im2col matrix of input patches,
//
// and C is the (coutPerG x OutH*OutW) output plane. Both operands are
// packed into panel layouts so the microkernel streams contiguously:
//
//	packed A: row panels of gemmMR, element (i, k) at panel(i)*K*MR + k*MR + i%MR
//	packed B: col panels of gemmNR, element (k, j) at panel(j)*K*NR + k*NR + j%NR
//
// Reduced precision follows one rule: widen once when a panel is packed,
// narrow once in the epilogue. fp16 weights are rounded to binary16 and
// kept as float32 row panels at plan time, fp16 inputs are decoded as
// im2colPacked gathers them, so fp32 and fp16 run the same float32 tile
// loop; int8 panels hold codes and accumulate in int32. Only the row
// writer knows the output's storage type.
//
// Macro blocking (gemmMC x gemmNC output tiles) provides the parallelFor
// grain and keeps each worker's A/B panels hot in cache. The K dimension is
// deliberately NOT split (KC == K): every output element accumulates in one
// register in ascending-k order starting from its bias value, which makes
// the GEMM path bit-identical to the direct kernel's ascending (ci, ky, kx)
// tap order (padding taps contribute an exact 0*w = +-0).
const (
	gemmMR = 4   // microkernel rows (output channels)
	gemmNR = 4   // microkernel cols (output pixels)
	gemmMC = 64  // macro-tile rows per parallel job
	gemmNC = 128 // macro-tile cols per parallel job
)

type (
	// gemmElem is a packed-panel element: float32 for fp32 and fp16
	// storage alike, int8 for quantized codes.
	gemmElem interface{ float32 | int8 }
	// gemmAcc is the accumulator a panel element multiplies into.
	gemmAcc interface{ float32 | int32 }
)

func roundUp(n, m int) int { return (n + m - 1) / m * m }

// gemmDims returns the group count and the per-group GEMM extents.
func (w ConvWorkload) gemmDims() (g, cinPerG, coutPerG, k int) {
	g = max(1, w.Groups)
	cinPerG, coutPerG = w.CIn/g, w.COut/g
	return g, cinPerG, coutPerG, cinPerG * w.KH * w.KW
}

// GEMMPackedWeightElems returns the length of the packed-A buffer produced
// by PackConvWeightsGEMM for workload w.
func GEMMPackedWeightElems(w ConvWorkload) int {
	g, _, coutPerG, k := w.gemmDims()
	return g * roundUp(coutPerG, gemmMR) * k
}

// GEMMScratchElems returns the im2col scratch (packed-B) size in panel
// elements for workload w. The buffer covers one (batch, group) plane; the
// batch/group loop is serial so a single buffer is reused.
func GEMMScratchElems(w ConvWorkload) int {
	_, _, _, k := w.gemmDims()
	return k * roundUp(w.OutH()*w.OutW(), gemmNR)
}

// packRowPanels scatters OIHW rows (k-contiguous per output channel) into
// the GEMM row-panel layout, zero-padding each group's tail rows.
func packRowPanels[E gemmElem](wd []E, w ConvWorkload) []E {
	g, _, coutPerG, k := w.gemmDims()
	mPad := roundUp(coutPerG, gemmMR)
	packed := make([]E, g*mPad*k)
	for grp := 0; grp < g; grp++ {
		for i := 0; i < coutPerG; i++ {
			wBase := (grp*coutPerG + i) * k
			pBase := grp*mPad*k + (i/gemmMR)*k*gemmMR + i%gemmMR
			for kk := 0; kk < k; kk++ {
				packed[pBase+kk*gemmMR] = wd[wBase+kk]
			}
		}
	}
	return packed
}

// PackConvWeightsGEMM packs OIHW conv weights into the GEMM row-panel
// layout. Done once at plan time; the result is read-only and shared across
// sessions.
func PackConvWeightsGEMM(weight *tensor.Tensor, w ConvWorkload) []float32 {
	return packRowPanels(weight.Data(), w)
}

// f16Rounded returns the weights wd after a round trip through binary16:
// exactly what an fp16 kernel multiplies by, kept as float32 so that no
// kernel decodes a weight at run time.
func f16Rounded(wd []float32) []float32 {
	r := make([]float32, len(wd))
	for i, v := range wd {
		r[i] = tensor.F16Round(v)
	}
	return r
}

// quantizeConvWeights quantizes OIHW conv weights to int8 codes with
// symmetric per-output-channel scales: scales[co] maps channel co's codes
// back to weight values.
func quantizeConvWeights(weight *tensor.Tensor, w ConvWorkload) (q []int8, scales []float32) {
	_, _, _, k := w.gemmDims()
	wd := weight.Data()
	q = make([]int8, len(wd))
	scales = make([]float32, w.COut)
	for co := range scales {
		row := wd[co*k : (co+1)*k]
		maxAbs := 0.0
		for _, v := range row {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		scales[co] = tensor.Int8Scale(maxAbs)
		for kk, v := range row {
			q[co*k+kk] = tensor.QuantizeInt8(v, scales[co])
		}
	}
	return q, scales
}

// PackConvWeightsInt8 packs OIHW conv weights into the GEMM row-panel
// layout quantized by quantizeConvWeights. Padded tail rows are zero.
func PackConvWeightsInt8(weight *tensor.Tensor, w ConvWorkload) (packed []int8, scales []float32) {
	q, scales := quantizeConvWeights(weight, w)
	return packRowPanels(q, w), scales
}

// im2colPacked fills bp with the packed-B im2col panels for one
// (batch, group) input plane, widening each source element to the panel
// type as it is gathered (a no-op for fp32 and int8, the one binary16
// decode for fp16). Out-of-bounds taps and tail columns are exact zeros.
func im2colPacked[S convElem, E gemmElem](bp []E, ind []S, w ConvWorkload, n, grp int) {
	_, cinPerG, _, k := w.gemmDims()
	ow := w.OutW()
	nCols := w.OutH() * ow
	nPanels := (nCols + gemmNR - 1) / gemmNR
	ciBase := grp * cinPerG

	parallelFor(nPanels, func(p int) {
		pBase := p * k * gemmNR
		for j := 0; j < gemmNR; j++ {
			col := p*gemmNR + j
			if col >= nCols {
				for kk := 0; kk < k; kk++ {
					bp[pBase+kk*gemmNR+j] = 0
				}
				continue
			}
			y := col / ow
			x := col % ow
			iy0 := y*w.StrideH - w.PadH
			ix0 := x*w.StrideW - w.PadW
			dst := pBase + j
			for ci := 0; ci < cinPerG; ci++ {
				iPlane := (n*w.CIn+ciBase+ci)*w.H*w.W + ix0
				for ky := 0; ky < w.KH; ky++ {
					iy := iy0 + ky
					rowOK := iy >= 0 && iy < w.H
					iRow := iPlane + iy*w.W
					for kx := 0; kx < w.KW; kx++ {
						var v E
						if rowOK {
							if ix := ix0 + kx; ix >= 0 && ix < w.W {
								e := ind[iRow+kx]
								if v = E(e); unsafe.Sizeof(e) == 2 {
									v = E(tensor.F16Decode(uint16(e)))
								}
							}
						}
						bp[dst] = v
						dst += gemmNR
					}
				}
			}
		}
	})
}

// scratchFor returns s when it holds need elements, else a fresh buffer.
func scratchFor[E gemmElem](s []E, need int) []E {
	if len(s) < need {
		return make([]E, need)
	}
	return s
}

// convGEMM runs the im2col-GEMM convolution into the sink: packedA holds
// row panels (PackConvWeightsGEMM, its f16Rounded form, or
// PackConvWeightsInt8); scratch must hold GEMMScratchElems(w) panel
// elements (pass nil to allocate locally).
func convGEMM[A gemmAcc, S convElem, E gemmElem, O convOut, R convElem](sink *convSink[O, R], ind []S, packedA, scratch []E, w ConvWorkload) {
	g, _, coutPerG, k := w.gemmDims()
	nCols := w.OutH() * w.OutW()
	mPad := roundUp(coutPerG, gemmMR)
	bp := scratchFor(scratch, GEMMScratchElems(w)) // one assignment: the closures capture it by value
	mBlocks := (coutPerG + gemmMC - 1) / gemmMC
	nBlocks := (nCols + gemmNC - 1) / gemmNC
	held := *sink

	for n := 0; n < w.N; n++ {
		for grp := 0; grp < g; grp++ {
			im2colPacked(bp, ind, w, n, grp)
			pa := packedA[grp*mPad*k : (grp+1)*mPad*k]
			coBase := grp * coutPerG
			outBase := (n*w.COut + coBase) * nCols
			parallelFor(mBlocks*nBlocks, func(job int) {
				s := held
				mb := job / nBlocks
				nb := job % nBlocks
				i0, i1 := mb*gemmMC, min((mb+1)*gemmMC, coutPerG)
				j0, j1 := nb*gemmNC, min((nb+1)*gemmNC, nCols)
				for i := i0; i < i1; i += gemmMR {
					ap := pa[(i/gemmMR)*k*gemmMR:]
					for j := j0; j < j1; j += gemmNR {
						gemmMicro[A](&s, ap, bp[(j/gemmNR)*k*gemmNR:], k,
							coBase+i, min(gemmMR, coutPerG-i), outBase+i*nCols+j, nCols, nCols-j)
					}
				}
			})
		}
	}
}

// gemmMicro computes one gemmMR x gemmNR output tile from an A row panel
// and a B column panel: rows valid rows (output channels co..) by nv valid
// columns, the first stored at flat output index base, rows nCols apart.
// The 16 accumulators live in registers from the bias to the row writer
// and accumulate over the full K extent in ascending order. Float
// accumulators start from the row's bias; int32 accumulators start from
// zero and are dequantized by the row writer.
func gemmMicro[A gemmAcc, E gemmElem, O convOut, R convElem](s *convSink[O, R], ap, bp []E, k, co, rows, base, nCols, nv int) {
	var c00, c01, c02, c03 A
	var c10, c11, c12, c13 A
	var c20, c21, c22, c23 A
	var c30, c31, c32, c33 A
	if s.wscale == nil && s.bias != nil {
		b := s.bias[co : co+rows]
		b0 := A(b[0])
		b1, b2, b3 := b0, b0, b0
		if rows > 1 {
			b1 = A(b[1])
		}
		if rows > 2 {
			b2 = A(b[2])
		}
		if rows > 3 {
			b3 = A(b[3])
		}
		c00, c01, c02, c03 = b0, b0, b0, b0
		c10, c11, c12, c13 = b1, b1, b1, b1
		c20, c21, c22, c23 = b2, b2, b2, b2
		c30, c31, c32, c33 = b3, b3, b3, b3
	}

	for kk := 0; kk < k; kk++ {
		a := ap[kk*gemmMR : kk*gemmMR+gemmMR]
		b := bp[kk*gemmNR : kk*gemmNR+gemmNR]
		a0, a1, a2, a3 := A(a[0]), A(a[1]), A(a[2]), A(a[3])
		b0, b1, b2, b3 := A(b[0]), A(b[1]), A(b[2]), A(b[3])
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}

	gemmRow(s, co, base, nv, c00, c01, c02, c03)
	if rows > 1 {
		gemmRow(s, co+1, base+nCols, nv, c10, c11, c12, c13)
	}
	if rows > 2 {
		gemmRow(s, co+2, base+2*nCols, nv, c20, c21, c22, c23)
	}
	if rows > 3 {
		gemmRow(s, co+3, base+3*nCols, nv, c30, c31, c32, c33)
	}
}

// gemmRow finishes one tile row of output channel co: int32 accumulators
// are dequantized (row scale = inScale * wscale[co], then the bias), and
// the nv valid values go through the epilogue to flat output index oi on.
func gemmRow[A gemmAcc, O convOut, R convElem](s *convSink[O, R], co, oi, nv int, a0, a1, a2, a3 A) {
	v0, v1, v2, v3 := float32(a0), float32(a1), float32(a2), float32(a3)
	if s.wscale != nil {
		scale, b := s.dequant(co)
		v0, v1, v2, v3 = v0*scale+b, v1*scale+b, v2*scale+b, v3*scale+b
	}
	out, res, act, postAct := s.out, s.res, s.act, s.postAct
	out[oi] = narrow[O](convEpilogue(v0, res, oi, act, postAct))
	if nv > 1 {
		out[oi+1] = narrow[O](convEpilogue(v1, res, oi+1, act, postAct))
	}
	if nv > 2 {
		out[oi+2] = narrow[O](convEpilogue(v2, res, oi+2, act, postAct))
	}
	if nv > 3 {
		out[oi+3] = narrow[O](convEpilogue(v3, res, oi+3, act, postAct))
	}
}
