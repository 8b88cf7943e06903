package ops

import (
	"math"
	"unsafe"

	"unigpu/internal/par"
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
// im2colPacked gathers them, so fp32 and fp16 run the same float32 tile;
// int8 panels hold codes and accumulate in int32. Only the row writer
// knows the output's storage type.
//
// The register tile is gemmMR x gemmNR = 16 output channels (the vector
// lanes) by 4 output pixels: AVX2 assembly on amd64 hosts that have it
// (gemm_amd64.s), gemmTileGo over the same panels everywhere else. Either
// way an output element is one accumulator that starts from its bias and
// takes its products in ascending k, each product rounded before it is
// added (no fused multiply-add), and K is deliberately NOT split
// (KC == K). That makes the GEMM path bit-identical to the direct kernel's
// ascending (ci, ky, kx) tap order (padding taps contribute an exact
// 0*w = +-0), whichever tile runs. A job of the tile fan-out is one A row
// panel, which stays hot in cache, against gemmNC output pixels.
const (
	gemmMR = 16  // tile rows (output channels)
	gemmNR = 4   // tile cols (output pixels)
	gemmNC = 128 // output pixels per parallel job
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

// GEMMScratchElems returns the im2col scratch (packed-B) size in panel
// elements for workload w. The buffer covers one (batch, group) plane; the
// batch/group loop is serial so a single buffer is reused.
func GEMMScratchElems(w ConvWorkload) int {
	_, _, _, k := w.gemmDims()
	return k * roundUp(w.OutH()*w.OutW(), gemmNR)
}

// packRowPanels scatters OIHW rows (k-contiguous per output channel) into
// the GEMM row-panel layout, zero-padding each group's tail rows. Done once
// at plan time; the result is read-only and shared across sessions.
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

// im2colJob fills bp with the packed-B im2col panels, one to a job, for the
// (batch, group) input plane that starts at ind[plane0], widening each
// source element to the panel type as it is gathered (a no-op for fp32 and
// int8, the one binary16 decode for fp16). Out-of-bounds taps and tail
// columns are exact zeros. No tap is bounds-tested: a panel whose four
// pixels have every tap in bounds (any of a 1x1 unpadded conv) is copied a
// panel row at a time; any other is zeroed and takes each pixel's in-bounds
// [ky0,ky1) x [kx0,kx1), found once per pixel (clampKernelRange).
type im2colJob[S convElem, E gemmElem] struct {
	bp                            []E
	ind                           []S
	w                             ConvWorkload
	cinPerG, k, ow, nCols, plane0 int
}

func (j im2colJob[S, E]) Run(p int) {
	w, ind, cinPerG, k, ow, nCols, hw := &j.w, j.ind, j.cinPerG, j.k, j.ow, j.nCols, j.w.H*j.w.W
	panel := j.bp[p*k*gemmNR:][:k*gemmNR]
	var src, ky0, ky1, kx0, kx1 [gemmNR]int
	inside := (p+1)*gemmNR <= nCols
	for c := range src {
		col := p*gemmNR + c
		iy0, ix0 := col/ow*w.StrideH-w.PadH, col%ow*w.StrideW-w.PadW
		src[c] = j.plane0 + iy0*w.W + ix0
		ky0[c], ky1[c] = clampKernelRange(iy0, w.H, w.KH)
		kx0[c], kx1[c] = clampKernelRange(ix0, w.W, w.KW)
		inside = inside && ky1[c]-ky0[c] == w.KH && kx1[c]-kx0[c] == w.KW
	}
	if inside {
		s0, s1, s2, s3 := src[0], src[1], src[2], src[3]
		for ci := 0; ci < cinPerG; ci++ {
			for ky := 0; ky < w.KH; ky++ {
				o := ci*hw + ky*w.W
				for kx := 0; kx < w.KW; kx++ {
					e0, e1, e2, e3 := ind[s0+o+kx], ind[s1+o+kx], ind[s2+o+kx], ind[s3+o+kx]
					if row := panel[:gemmNR]; unsafe.Sizeof(e0) == 2 {
						row[0], row[1], row[2], row[3] = E(tensor.F16Decode(uint16(e0))), E(tensor.F16Decode(uint16(e1))), E(tensor.F16Decode(uint16(e2))), E(tensor.F16Decode(uint16(e3)))
					} else {
						row[0], row[1], row[2], row[3] = E(e0), E(e1), E(e2), E(e3)
					}
					panel = panel[gemmNR:]
				}
			}
		}
		return
	}
	clear(panel)
	for c := 0; c < min(gemmNR, nCols-p*gemmNR); c++ { // tail columns stay zero
		for ci := 0; ci < cinPerG; ci++ {
			for ky := ky0[c]; ky < ky1[c]; ky++ {
				iRow := src[c] + ci*hw + ky*w.W
				dst := (ci*w.KH+ky)*w.KW*gemmNR + c
				for kx := kx0[c]; kx < kx1[c]; kx++ {
					e := ind[iRow+kx]
					v := E(e)
					if unsafe.Sizeof(e) == 2 {
						v = E(tensor.F16Decode(uint16(e)))
					}
					panel[dst+kx*gemmNR] = v
				}
			}
		}
	}
}

// convGEMM runs the im2col-GEMM convolution into the sink: packedA holds
// row panels (packRowPanels of the fp32 weights, of their f16Rounded form,
// or of their quantizeConvWeights codes); scratch must hold
// GEMMScratchElems(w) panel elements (pass nil to allocate locally).
func convGEMM[A gemmAcc, S convElem, E gemmElem, O convOut, R convElem](sink *convSink[O, R], ind []S, packedA, scratch []E, w ConvWorkload) {
	g, cinPerG, coutPerG, k := w.gemmDims()
	nCols := w.OutH() * w.OutW()
	mPad := roundUp(coutPerG, gemmMR)
	bp := scratch
	if need := GEMMScratchElems(w); len(bp) < need {
		bp = make([]E, need)
	}
	nBlocks := (nCols + gemmNC - 1) / gemmNC
	for n := 0; n < w.N; n++ {
		for grp := 0; grp < g; grp++ {
			par.For((nCols+gemmNR-1)/gemmNR, im2colJob[S, E]{bp, ind, w, cinPerG, k, w.OutW(), nCols, (n*w.CIn + grp*cinPerG) * w.H * w.W})
			par.For(mPad/gemmMR*nBlocks, tileJob[A, E, O, R]{*sink, packedA[grp*mPad*k:][:mPad*k], bp,
				k, nBlocks, nCols, grp * coutPerG, coutPerG, (n*w.COut + grp*coutPerG) * nCols})
		}
	}
}

// tileJob is the GEMM of one (batch, group) plane: job i is row panel
// i/nBlocks of pa against pixels [i%nBlocks*gemmNC, +gemmNC) of bp.
type tileJob[A gemmAcc, E gemmElem, O convOut, R convElem] struct {
	sink                                     convSink[O, R]
	pa, bp                                   []E
	k, nBlocks, nCols, coBase, rows, outBase int // rows: the group's output channels
}

func (t tileJob[A, E, O, R]) Run(job int) {
	i, j0 := job/t.nBlocks*gemmMR, job%t.nBlocks*gemmNC
	for j := j0; j < min(j0+gemmNC, t.nCols); j += gemmNR {
		gemmMicro[A](&t.sink, t.pa[i*t.k:], t.bp[j*t.k:], t.k,
			t.coBase+i, min(gemmMR, t.rows-i), t.outBase+i*t.nCols+j, t.nCols, t.nCols-j)
	}
}

// gemmMicro computes one gemmMR x gemmNR output tile from an A row panel
// and a B column panel: rows valid rows (output channels co..) by nv valid
// columns, the first stored at flat output index base, rows nCols apart.
// The accumulator block c, element (i, j) at c[j*gemmMR+i], stays on this
// frame, and in registers while the tile runs. Float accumulators start
// from the row's bias; int32 accumulators start from zero and are
// dequantized by the row writer. Padded rows are computed and dropped.
func gemmMicro[A gemmAcc, E gemmElem, O convOut, R convElem](s *convSink[O, R], ap, bp []E, k, co, rows, base, nCols, nv int) {
	var c [gemmMR * gemmNR]A
	if s.wscale == nil && s.bias != nil {
		for i, b := range s.bias[co : co+rows] {
			c[i], c[gemmMR+i], c[2*gemmMR+i], c[3*gemmMR+i] = A(b), A(b), A(b), A(b)
		}
	}
	gemmTile(&c, ap[:k*gemmMR], bp[:k*gemmNR])
	for i := 0; i < rows; i++ {
		gemmRow(s, co+i, base+i*nCols, nv, c[i], c[gemmMR+i], c[2*gemmMR+i], c[3*gemmMR+i])
	}
}

// gemmTileGo is the portable register tile and the reference the assembly
// tiles are tested against: c += A panel x B panel over all of k, as eight
// 2x4 sub-tiles, whose 8 accumulators and 6 operands fit amd64's registers.
func gemmTileGo[A gemmAcc, E gemmElem](c *[gemmMR * gemmNR]A, ap, bp []E) {
	for r := 0; r < gemmMR; r += 2 {
		c00, c01, c02, c03 := c[r], c[gemmMR+r], c[2*gemmMR+r], c[3*gemmMR+r]
		c10, c11, c12, c13 := c[r+1], c[gemmMR+r+1], c[2*gemmMR+r+1], c[3*gemmMR+r+1]
		for kk := 0; kk*gemmNR < len(bp); kk++ {
			a := ap[kk*gemmMR+r : kk*gemmMR+r+2]
			b := bp[kk*gemmNR : kk*gemmNR+gemmNR]
			a0, a1 := A(a[0]), A(a[1])
			b0, b1, b2, b3 := A(b[0]), A(b[1]), A(b[2]), A(b[3])
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
		}
		c[r], c[gemmMR+r], c[2*gemmMR+r], c[3*gemmMR+r] = c00, c01, c02, c03
		c[r+1], c[gemmMR+r+1], c[2*gemmMR+r+1], c[3*gemmMR+r+1] = c10, c11, c12, c13
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
