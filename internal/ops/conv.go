package ops

import (
	"math"
	"unsafe"

	"unigpu/internal/par"
	"unigpu/internal/tensor"
)

// Conv2DInto computes a (possibly grouped/depthwise) 2-D convolution in NCHW
// with OIHW weights, optional bias and an optional fused activation into a
// caller-provided output tensor of shape (N, COut, OutH, OutW); it allocates
// no intermediate storage. It is the row-accumulate loop (convRows) at fp32:
// every output takes its taps in ascending (ci, ky, kx) order from its bias,
// which keeps the result bit-identical to the naive per-tap-branching loop.
func Conv2DInto(out, in, weight, bias *tensor.Tensor, w ConvWorkload) {
	convRows[float32](&convSink[float32, float32]{out: out.Data(), bias: biasData(bias), act: w.FusedActivation},
		in.Data(), weight.Data(), w)
}

func biasData(bias *tensor.Tensor) []float32 {
	if bias == nil {
		return nil
	}
	return bias.Data()
}

type (
	// convElem is a storage element a conv kernel reads: float32 values,
	// binary16 bit patterns (uint16 is never anything else in this
	// package) or int8 codes. Kernels written once over all three convert a
	// row at a time where they can (widenRow, storeRow: a type switch per
	// row, then a vector primitive). Where single elements are widened or
	// narrowed (the im2col packer, a strided band row, the GEMM row writer)
	// binary16 is told apart by unsafe.Sizeof(x) == 2: a constant in each
	// instantiation, so the untaken side compiles away, and spelled out at
	// each site because a generic callee, even inlined, costs its caller a
	// dictionary nil check per call, which a three-instruction loop notices.
	convElem interface{ float32 | uint16 | int8 }
	// convOut is a conv output element: float32, or binary16 bits narrowed
	// once at the store.
	convOut interface{ float32 | uint16 }
)

// narrow is the one store-side conversion: round-to-nearest-even to
// binary16 bits, or the value unchanged.
func narrow[O convOut](v float32) O {
	var o O
	if unsafe.Sizeof(o) == 2 {
		return O(tensor.F16Encode(v))
	}
	return O(v)
}

// convSink is where every conv kernel's finished accumulators go: the
// output and fused-residual storage, whose element types are the kernels'
// only view of their dtypes, and what the epilogue needs. The kernels' jobs
// (par.Job values) hold it by value: the caller's stays on its stack.
type convSink[O convOut, R convElem] struct {
	out     []O
	res     []R       // fused residual, indexed like out; nil for none
	bias    []float32 // per output channel; nil for none
	wscale  []float32 // int8 kernels only: per-output-channel weight scales
	inScale float32   // int8 kernels only: the input tensor's scale
	act     Activation
	postAct bool // residual is added after the activation, not before
}

// convEpilogue finishes one conv output element: the optional fused
// residual row rd (indexed like the output) is added before the activation
// for the ResNet conv→add→relu pattern, or after it (postAct) for the
// Darknet conv(+act)→add pattern. The per-element operation order matches
// the unfused AddInto/activation kernels exactly, so fusing is
// bit-preserving. It is a free function over the sink's fields, with the
// narrowing store written out at each call site, because that is the shape
// the inliner accepts (it sits just under the budget: check -gcflags=-m
// after touching it), so neither half costs fp32 a call.
func convEpilogue[R convElem](v float32, rd []R, oi int, a Activation, postAct bool) float32 {
	var r float32
	if rd != nil {
		x := rd[oi]
		if r = float32(x); unsafe.Sizeof(x) == 2 {
			r = tensor.F16Decode(uint16(x))
		}
		if !postAct {
			v += r
		}
	}
	v = applyActivation(v, a)
	if rd != nil && postAct {
		v += r
	}
	return v
}

// dequant returns what turns channel co's int32 accumulator into a real
// value: v*scale + bias.
func (s *convSink[O, R]) dequant(co int) (scale, bias float32) {
	if s.bias != nil {
		bias = s.bias[co]
	}
	return s.inScale * s.wscale[co], bias
}

// convRowScratch is the room, in accumulator elements (9 KiB), for the
// accumulators of a band of output rows and the widened input rows under
// them. It holds a whole 32x32 plane of a 3x3 stride-1 conv; a larger plane
// is done a band of rows at a time.
const convRowScratch = 2304

// convRowJobMACs is about how many multiply-adds a row-kernel job should
// have to spread its fixed costs over (its scratch is zeroed on entry, 11
// KiB): planes smaller than that go several to a job.
const convRowJobMACs = 4096

// rowScratch is what a row-kernel job keeps on its stack.
type rowScratch[A gemmAcc] struct {
	band [convRowScratch + 2*axpyLanes]A // accumulators, then the input band, each with room to round up
	// The finished outputs not yet stored: run[:n], which belong at flat
	// output index oi on. A job's planes are consecutive, so are their
	// outputs, and small planes share a run (and its epilogue and store).
	run, res [typedRun]float32 // res: the run's residual values, widened
	n, oi    int
}

// convRows is the row-accumulate loop behind KernelDirect and
// KernelDepthwise (one input channel per group is all that depthwise means
// here) at every storage dtype: wd holds OIHW weights, float32 (rounded
// through binary16 at plan time for fp16) or int8 codes. Float accumulators
// start from the bias; int32 accumulators start from zero and take the same
// dequantize epilogue as the int8 GEMM, so the int8 result is the grouped
// GEMM's integer sum bit for bit.
//
// The unit of work is one (n, co) output plane, a band of output rows at a
// time, a job being one plane or a run of small ones (convRowJobMACs). The
// input rows under the band are widened once into zero-padded scratch,
// split for a strided conv into its StrideH x StrideW phase planes
// (phase (ry, rx) holds padded-input rows ry, ry+StrideH, ... and columns
// rx, rx+StrideW, ...), all at one row pitch wq with the accumulators. Tap
// (ky, kx) of every output in the band is then ONE contiguous axpy, the
// band flattened: accumulator y*wq+x takes element (y+ky/StrideH)*wq +
// x+kx/StrideW of phase (ky%StrideH, kx%StrideW). Columns ow..wq of an
// accumulator row collect sums nothing reads. Taps run outermost, in
// ascending (ci, ky, kx) order, so every output still receives its products
// in the naive loop's order, each rounded before it is added; a padding tap
// adds an exact 0*w = +-0 as it does in the GEMM. The epilogue and the
// narrowing store run once per run of finished outputs (finishBand).
func convRows[A gemmAcc, S convElem, W gemmElem, O convOut, R convElem](sink *convSink[O, R], ind []S, wd []W, w ConvWorkload) {
	g := newRowGeom(w)
	per := max(1, convRowJobMACs/(g.oh*g.ow*g.cinPerG*w.KH*w.KW))
	par.For((w.N*w.COut+per-1)/per, rowsJob[A, S, W, O, R]{*sink, ind, wd, g, per})
}

// rowsJob is a convRows fan-out: job i computes planes [i*per, (i+1)*per).
type rowsJob[A gemmAcc, S convElem, W gemmElem, O convOut, R convElem] struct {
	sink convSink[O, R]
	ind  []S
	wd   []W
	g    rowGeom
	per  int
}

func (j rowsJob[A, S, W, O, R]) Run(i int) {
	var sc rowScratch[A]
	for p := i * j.per; p < min(j.g.N*j.g.COut, (i+1)*j.per); p++ {
		convRowsPlane(&j.sink, &sc, j.ind, j.wd, &j.g, p)
	}
	finishRun(&j.sink, &sc)
}

// rowGeom is the row kernel's geometry of a workload, worked out once per
// conv so that a plane's own set-up divides next to nothing.
type rowGeom struct {
	ConvWorkload
	oh, ow            int
	cinPerG, coutPerG int
	phH, phW          int // phase planes each way: min(stride, kernel)
	qy, wq            int // phase rows under an output row beyond its own; the row pitch of accumulators and phases
	rows              int // output rows per band
}

func newRowGeom(w ConvWorkload) rowGeom {
	g := rowGeom{ConvWorkload: w, oh: w.OutH(), ow: w.OutW(), phH: min(w.StrideH, w.KH), phW: min(w.StrideW, w.KW)}
	_, g.cinPerG, g.coutPerG, _ = w.gemmDims()
	g.qy, g.wq = (w.KH-1)/w.StrideH, g.ow+(w.KW-1)/w.StrideW
	// rows*wq accumulators and phases*(rows+qy)*wq band elements fit the
	// scratch; a plane too wide for one row (rows < 1) takes the heap.
	phases := g.phH * g.phW
	g.rows = min(g.oh, (convRowScratch/g.wq-phases*g.qy)/(1+phases))
	return g
}

// convRowsPlane computes output plane p = n*COut + co.
func convRowsPlane[A gemmAcc, S convElem, W gemmElem, O convOut, R convElem](s *convSink[O, R], sc *rowScratch[A], ind []S, wd []W, g *rowGeom, p int) {
	co := p % g.COut
	var start A
	var scale, b float32
	if s.wscale != nil {
		scale, b = s.dequant(co)
	} else if s.bias != nil {
		start = A(s.bias[co])
	}
	hw, kk := g.H*g.W, g.KH*g.KW
	src := ind[(p/g.COut*g.CIn+co/g.coutPerG*g.cinPerG)*hw:][:g.cinPerG*hw] // the group's input planes
	wt := wd[co*g.cinPerG*kk:][:g.cinPerG*kk]                               // and co's filters over them
	if (g.oh-1)*g.wq+g.ow < axpyLanes {
		convPixels(s, sc, src, wt, g, p, start, scale, b)
		return
	}
	phases, rows, scratch := g.phH*g.phW, g.rows, sc.band[:]
	if rows < 1 {
		rows, scratch = 1, make([]A, (1+phases*(1+g.qy))*g.wq+2*axpyLanes)
	}
	for y0 := 0; y0 < g.oh; y0 += rows {
		r := min(rows, g.oh-y0)
		// The accumulators run through the last output, rounded up to whole
		// vectors: the extra ones read zeros past the band and are dropped.
		n, phase := roundUp((r-1)*g.wq+g.ow, axpyLanes), (r+g.qy)*g.wq
		acc, band := scratch[:n], scratch[roundUp(r*g.wq, axpyLanes):][:phases*phase+axpyLanes]
		fillRow(acc, start)
		clear(band[phases*phase:])
		for ci := 0; ci < g.cinPerG; ci++ {
			fillBand(band[:phases*phase], src[ci*hw:][:hw], g, y0, r+g.qy)
			taps := wt[ci*kk:][:kk]
			// Tap (ky, kx) reads phase (ry, rx) = (ky, kx) mod stride from
			// element (dy, dx) = (ky, kx) / stride on, counted up, not divided.
			for ky, ry, dy := 0, 0, 0; ky < g.KH; ky++ {
				for kx, rx, dx := 0, 0, 0; kx < g.KW; kx++ {
					off := (ry*g.phW+rx)*phase + dy*g.wq + dx
					axpy(acc, band[off:off+n], A(taps[ky*g.KW+kx]))
					if rx++; rx == g.StrideW {
						rx, dx = 0, dx+1
					}
				}
				if ry++; ry == g.StrideH {
					ry, dy = 0, dy+1
				}
			}
		}
		finishBand(s, sc, acc, r, g.wq, g.ow, (p*g.oh+y0)*g.ow, scale, b)
	}
}

// convPixels computes output plane p one output at a time, its in-bounds
// taps found once per output and folded in the same ascending (ci, ky, kx)
// order: the form for a plane whose flattened band would be shorter than
// one vector (2x2 outputs and smaller), where widening a band per input
// channel costs more than the chain of adds it would replace. A prepared
// direct conv runs such planes over its output channels instead (SSD's
// convs over 1x1 maps; convChannels), so depthwise planes, too few
// channels and Conv2DInto, its reference, are what reach this chain.
func convPixels[A gemmAcc, S convElem, W gemmElem, O convOut, R convElem](s *convSink[O, R], sc *rowScratch[A], src []S, wt []W, g *rowGeom, p int, start A, scale, b float32) {
	hw, kk := g.H*g.W, g.KH*g.KW
	acc := sc.band[:g.oh*g.ow]
	for y := 0; y < g.oh; y++ {
		iy0 := y*g.StrideH - g.PadH
		ky0, ky1 := clampKernelRange(iy0, g.H, g.KH)
		for x := 0; x < g.ow; x++ {
			ix0 := x*g.StrideW - g.PadW
			kx0, kx1 := clampKernelRange(ix0, g.W, g.KW)
			sum := start
			for ci := 0; ci < g.cinPerG; ci++ {
				in, taps := src[ci*hw:][:hw], wt[ci*kk:][:kk]
				for ky := ky0; ky < ky1; ky++ {
					for kx := kx0; kx < kx1; kx++ {
						e := in[(iy0+ky)*g.W+ix0+kx]
						f := A(e)
						if unsafe.Sizeof(e) == 2 {
							f = A(tensor.F16Decode(uint16(e)))
						}
						sum += f * A(taps[ky*g.KW+kx])
					}
				}
			}
			acc[y*g.ow+x] = sum
		}
	}
	finishBand(s, sc, acc, g.oh, g.ow, g.ow, p*g.oh*g.ow, scale, b)
}

const chanBlock = 64 // output channels (eight vectors) per convChannels job

// chanGeom is convChannels' geometry: the row kernel's, and the box of taps
// some output reads in bounds, the only ones packed (a 1x1 map under a
// padded 3x3 kernel reads its centre alone).
type chanGeom struct {
	rowGeom
	ky0, nky, kx0, nkx int
	blocks             int // of chanBlock channels per group, the last maybe short
}

// newChanGeom returns convChannels' geometry for kernel k on w, or nil
// where it does not apply: it takes a direct conv's planes that convPixels
// would, given a vector of output channels per group.
func newChanGeom(w ConvWorkload, k ConvKernel) *chanGeom {
	g := &chanGeom{rowGeom: newRowGeom(w)}
	if k != KernelDirect || (g.oh-1)*g.wq+g.ow >= axpyLanes || g.coutPerG < axpyLanes {
		return nil
	}
	// An output's in-bounds taps move down as the output moves up: the box
	// runs from the last output's first tap to the first output's last.
	g.ky0, _ = clampKernelRange((g.oh-1)*g.StrideH-g.PadH, g.H, g.KH)
	g.kx0, _ = clampKernelRange((g.ow-1)*g.StrideW-g.PadW, g.W, g.KW)
	_, ky1 := clampKernelRange(-g.PadH, g.H, g.KH)
	_, kx1 := clampKernelRange(-g.PadW, g.W, g.KW)
	g.nky, g.nkx, g.blocks = ky1-g.ky0, kx1-g.kx0, (g.coutPerG+chanBlock-1)/chanBlock
	return g
}

// packChannels packs OIHW weights in blocks of a group's chanBlock output
// channels (fewer in its last): tap t = (ci, ky, kx) of the box, counted in
// ascending order, of the block of nb channels from co is at co*taps + t*nb.
func packChannels(wd []float32, g *chanGeom) []float32 {
	kk, taps := g.KH*g.KW, g.cinPerG*g.nky*g.nkx
	packed := make([]float32, g.COut*taps)
	for co := 0; co < g.COut; co++ {
		j := co % g.coutPerG % chanBlock
		blk, nb := packed[(co-j)*taps:], min(chanBlock, g.coutPerG-co%g.coutPerG+j)
		for t := 0; t < taps; t++ {
			ci, ky, kx := t/(g.nky*g.nkx), g.ky0+t/g.nkx%g.nky, g.kx0+t%g.nkx
			blk[t*nb+j] = wd[(co*g.cinPerG+ci)*kk+ky*g.KW+kx]
		}
	}
	return packed
}

// convChannels runs a prepared direct conv over planes too short for the row
// kernel's vectors (newChanGeom) with the lanes over output channels, which
// NCHW keeps contiguous there. Job (n, group, block) starts the block's
// accumulators of each output pixel from the bias and adds every in-bounds
// tap (ci, ky, kx), ascending, as one axpy of its packed weights by the input
// element under it: convPixels' rounded products in convPixels' order.
func convChannels[S convElem, O convOut, R convElem](sink *convSink[O, R], ind []S, wd []float32, g *chanGeom) {
	par.For(g.N*g.COut/g.coutPerG*g.blocks, chansJob[S, O, R]{*sink, ind, wd, g})
}

type chansJob[S convElem, O convOut, R convElem] struct {
	sink convSink[O, R]
	ind  []S
	wd   []float32
	g    *chanGeom
}

func (j chansJob[S, O, R]) Run(i int) {
	var sc rowScratch[float32]
	g := j.g
	ng, c0 := i/g.blocks, i%g.blocks*chanBlock // ng = n*groups + group
	co, nb := ng%(g.COut/g.coutPerG)*g.coutPerG+c0, min(chanBlock, g.coutPerG-c0)
	hw, taps, pix := g.H*g.W, g.cinPerG*g.nky*g.nkx, g.oh*g.ow
	src, wb := j.ind[ng*g.cinPerG*hw:][:g.cinPerG*hw], j.wd[co*taps:][:nb*taps]
	// Output pixel q's accumulators a go to run[c*pix+q]: channel-major, the
	// block's outputs are one run from channel co's plane on.
	a, run := sc.band[:nb], sc.band[chanBlock:][:pix*nb]
	for q := range pix {
		iy0, ix0 := q/g.ow*g.StrideH-g.PadH, q%g.ow*g.StrideW-g.PadW
		ky0, ky1 := clampKernelRange(iy0, g.H, g.KH)
		kx0, kx1 := clampKernelRange(ix0, g.W, g.KW)
		if clear(a); j.sink.bias != nil {
			copy(a, j.sink.bias[co:])
		}
		for ci := 0; ci < g.cinPerG; ci++ {
			for ky := ky0; ky < ky1; ky++ {
				off, t := ci*hw+(iy0+ky)*g.W+ix0, ((ci*g.nky+ky-g.ky0)*g.nkx-g.kx0)*nb
				for kx := kx0; kx < kx1; kx++ {
					e := src[off+kx]
					f := float32(e)
					if unsafe.Sizeof(e) == 2 {
						f = tensor.F16Decode(uint16(e))
					}
					axpy(a, wb[t+kx*nb:], f)
				}
			}
		}
		for c, v := range a {
			run[c*pix+q] = v
		}
	}
	finishBand(&j.sink, &sc, run, 1, len(run), len(run), (ng*g.coutPerG+c0)*pix, 0, 0)
	finishRun(&j.sink, &sc)
}

// fillBand widens the rows of input plane src under output rows y0.. into
// the zero-padded phase planes of band, hq rows of wq elements each: phase
// (ry, rx) element (a, b) is padded-input element ((y0+a)*StrideH+ry,
// b*StrideW+rx), zero where that is padding. A stride-1 row is one
// widening copy; a strided one is gathered.
func fillBand[A gemmAcc, S convElem](band []A, src []S, g *rowGeom, y0, hq int) {
	clear(band)
	for ry := 0; ry < g.phH; ry++ {
		a0, a1 := strideRange(y0*g.StrideH+ry-g.PadH, g.StrideH, g.H, hq)
		for rx := 0; rx < g.phW; rx++ {
			b0, b1 := strideRange(rx-g.PadW, g.StrideW, g.W, g.wq)
			for a := a0; a < a1 && b0 < b1; a++ {
				dst := band[a*g.wq+b0 : a*g.wq+b1]
				row := src[((y0+a)*g.StrideH+ry-g.PadH)*g.W+b0*g.StrideW+rx-g.PadW:]
				if g.StrideW == 1 {
					widenRow(dst, row)
					continue
				}
				for i := range dst {
					e := row[i*g.StrideW]
					if dst[i] = A(e); unsafe.Sizeof(e) == 2 {
						dst[i] = A(tensor.F16Decode(uint16(e)))
					}
				}
			}
			band = band[hq*g.wq:]
		}
	}
}

// strideRange returns the half-open range [t0,t1) of t in [0,limit) for
// which base+t*stride lands inside [0,size); t0 <= t1.
func strideRange(base, stride, size, limit int) (int, int) {
	if stride == 1 { // the usual case, without the divisions
		return clampKernelRange(base, size, limit)
	}
	t0 := min(max(0, (stride-1-base)/stride), limit)
	return t0, max(t0, min(limit, (size-1-base+stride)/stride))
}

// fillRow sets every element of row to v: the first few by hand, the rest
// by copies that double what is filled, which beats an element loop from a
// few dozen elements on.
func fillRow[T any](row []T, v T) {
	n := min(8, len(row))
	for i := range row[:n] {
		row[i] = v
	}
	for ; n < len(row); n *= 2 {
		copy(row[n:], row[:n])
	}
}

// widenRow copies src[:len(dst)] into dst as accumulator values: float32
// values as they are, binary16 decoded, int8 codes as int32.
func widenRow[A gemmAcc, S convElem](dst []A, src []S) {
	switch d := any(dst).(type) {
	case []float32:
		switch s := any(src).(type) {
		case []float32:
			copy(d, s)
		case []uint16:
			tensor.WidenHalf(d, s)
		}
	case []int32:
		widenCodes(d, any(src).([]int8))
	}
}

// widenCodesGo and dequantGo are the portable forms, and the assembly's
// references, of the two conversions around int32 accumulators: int8 codes
// in, dequantized sums out.
func widenCodesGo(dst []int32, src []int8) {
	for i, q := range src[:len(dst)] {
		dst[i] = int32(q)
	}
}

func dequantGo(dst []float32, src []int32, scale, bias float32) {
	for i, v := range src[:len(dst)] {
		dst[i] = float32(v)*scale + bias
	}
}

// axpyLanes is the vector width the row kernels round a row of
// accumulators up to, so that axpy's assembly runs all of it.
const axpyLanes = 8

// axpyGo is acc[i] += x[i]*w over len(acc) elements of x, the row kernels'
// one inner loop: the portable form and the reference of the assembly
// (rows_amd64.s).
func axpyGo[A gemmAcc](acc, x []A, w A) {
	x = x[:len(acc)]
	for i := range acc {
		acc[i] += x[i] * w
	}
}

// finishBand appends a band's finished sums (r rows of ow accumulators at
// pitch wq, whose outputs start at flat index oi and are contiguous) to the
// job's run of outputs, int32 sums dequantized (v*scale + b) on the way,
// and finishes the run each time it fills.
func finishBand[A gemmAcc, O convOut, R convElem](s *convSink[O, R], sc *rowScratch[A], acc []A, r, wq, ow, oi int, scale, b float32) {
	if sc.n == 0 {
		sc.oi = oi
	}
	for y := 0; y < r; y++ {
		for row := acc[y*wq:][:ow]; len(row) > 0; {
			c := min(len(row), typedRun-sc.n)
			switch a := any(row[:c]).(type) {
			case []float32:
				copy(sc.run[sc.n:], a)
			case []int32:
				dequantRow(sc.run[sc.n:][:c], a, scale, b)
			}
			if row, sc.n = row[c:], sc.n+c; sc.n == typedRun {
				finishRun(s, sc)
			}
		}
	}
}

// finishRun stores the job's run of finished sums: the fused residual
// before or after the activation, exactly convEpilogue's order per element,
// then the one narrowing store.
func finishRun[A gemmAcc, O convOut, R convElem](s *convSink[O, R], sc *rowScratch[A]) {
	run, oi := sc.run[:sc.n], sc.oi
	if s.res != nil && !s.postAct {
		addRow(run, sc.res[:], s.res[oi:])
	}
	switch s.act {
	case ActReLU:
		reluRow(run)
	case ActLeakyReLU:
		leakyRow(run, LeakyAlpha)
	}
	if s.res != nil && s.postAct {
		addRow(run, sc.res[:], s.res[oi:])
	}
	storeRow(s.out[oi:oi+len(run)], run)
	sc.n, sc.oi = 0, oi+len(run)
}

// addRow adds the residual values rd[:len(run)], widened through buf, to run.
func addRow[R convElem](run, buf []float32, rd []R) {
	buf = buf[:len(run)]
	widenRow(buf, rd)
	for i, v := range buf {
		run[i] += v
	}
}

// storeRow is narrow a row at a time: src rounded
// to nearest even into binary16 bits, or copied.
func storeRow[O convOut](dst []O, src []float32) {
	switch d := any(dst).(type) {
	case []float32:
		copy(d, src)
	case []uint16:
		tensor.NarrowHalf(d, src)
	}
}

// clampKernelRange returns the half-open range [k0,k1) of kernel taps k, 0 <=
// k0 <= k1 <= kext, for which base+k lands inside [0,size).
func clampKernelRange(base, size, kext int) (int, int) {
	k0 := min(max(0, -base), kext)
	return k0, max(k0, min(kext, size-base))
}

// reluGo and leakyRow rectify a run in place: what applyActivation does to
// each element, without its data-dependent branch, which a trained layer's
// pre-activations (about half of them negative) mispredict every other
// time. v < 0 holds exactly for the bit patterns 0x80000001..0xff800000:
// sign set, not -0, not a NaN. reluGo is the portable form and the
// reference of reluRow's assembly (rows_amd64.s).
func reluGo(run []float32) {
	for i, v := range run {
		b := math.Float32bits(v)
		if b-0x80000001 < 0x7f800000 {
			b = 0
		}
		run[i] = math.Float32frombits(b)
	}
}

func leakyRow(run []float32, alpha float32) {
	for i, v := range run {
		b, scaled := math.Float32bits(v), math.Float32bits(alpha*v)
		if b-0x80000001 < 0x7f800000 {
			b = scaled
		}
		run[i] = math.Float32frombits(b)
	}
}

func applyActivation(v float32, a Activation) float32 {
	switch a {
	case ActReLU:
		if v < 0 {
			return 0
		}
	case ActLeakyReLU:
		if v < 0 {
			return LeakyAlpha * v
		}
	}
	return v
}

// DenseActInto computes out[n,o] = act(sum_i in[n,i]*W[o,i] + bias[o]) into
// a caller-provided (N, O) tensor (act ActNone for a raw layer). The
// activation is applied to each finished accumulator exactly as a separate
// elementwise pass would, so fusing it is bit-preserving. Operands of any
// storage dtype (in practice the fp16 weight matrix a quantized graph
// carries, sometimes an fp16 input) are read as float32 views a run at a
// time: fp32 in place, anything else widened by a row primitive.
func DenseActInto(out, in, weight, bias *tensor.Tensor, act Activation) {
	// Four output neurons per job, so four independent chains, each still its
	// bias plus its products in ascending i; a row's last block repeats o-1.
	par.For(in.Shape()[0]*((weight.Shape()[0]+3)/4), denseJob{out, in, weight, biasData(bias), act})
}

type denseJob struct {
	out, in, weight *tensor.Tensor
	bd              []float32
	act             Activation
}

func (d denseJob) Run(job int) {
	in, weight, bd, k, o := d.in, d.weight, d.bd, d.in.Shape()[1], d.weight.Shape()[0]
	blocks := (o + 3) / 4
	ni, o0 := job/blocks, job%blocks*4
	o1, o2, o3 := min(o0+1, o-1), min(o0+2, o-1), min(o0+3, o-1)
	var s0, s1, s2, s3 float32
	if bd != nil {
		s0, s1, s2, s3 = bd[o0], bd[o1], bd[o2], bd[o3]
	}
	var xb, b0, b1, b2, b3 []float32 // widening room, which all-fp32 operands do without
	if in.DType() != tensor.Float32 || weight.DType() != tensor.Float32 {
		bufs := new([5][typedRun]float32)
		xb, b0, b1, b2, b3 = bufs[0][:], bufs[1][:], bufs[2][:], bufs[3][:], bufs[4][:]
	}
	for i := 0; i < k; i += typedRun {
		c := min(typedRun, k-i)
		xs := in.ViewF(xb, ni*k+i, c)
		w0, w1, w2, w3 := weight.ViewF(b0, o0*k+i, c), weight.ViewF(b1, o1*k+i, c), weight.ViewF(b2, o2*k+i, c), weight.ViewF(b3, o3*k+i, c)
		w0, w1, w2, w3 = w0[:len(xs)], w1[:len(xs)], w2[:len(xs)], w3[:len(xs)]
		for j, x := range xs {
			s0 += x * w0[j]
			s1 += x * w1[j]
			s2 += x * w2[j]
			s3 += x * w3[j]
		}
	}
	d.out.SetF(ni*o+o0, applyActivation(s0, d.act))
	d.out.SetF(ni*o+o1, applyActivation(s1, d.act))
	d.out.SetF(ni*o+o2, applyActivation(s2, d.act))
	d.out.SetF(ni*o+o3, applyActivation(s3, d.act))
}
