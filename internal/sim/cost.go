package sim

import (
	"math"
	"sort"

	"unigpu/internal/ir"
	"unigpu/internal/te"
)

// Cost is the predicted execution profile of one kernel on one device.
type Cost struct {
	Seconds        float64
	ComputeSeconds float64
	MemorySeconds  float64
	LaunchSeconds  float64

	FLOPs        float64
	TrafficBytes float64

	Occupancy  float64 // fraction of hardware threads kept busy
	WarpUtil   float64 // lockstep-lane utilization
	Divergence float64 // fraction of guarded (divergent) work
	Efficiency float64 // achieved fraction of peak compute
}

// CostKernel prices a lowered kernel on the device. The model is a roofline
// (max of compute and memory time) whose compute efficiency is degraded by
// the schedule-visible factors of §2.1: load balancing across compute
// units, warp/SIMD packing, thread divergence, loop overhead; and whose
// memory traffic is reduced by the reuse that tiling keeps within the
// register/shared/L2 working set, scaled by access coalescing.
func CostKernel(d *Device, k *te.Kernel) Cost {
	a := analyzeKernel(k)
	return costFromAnalysis(d, a)
}

func costFromAnalysis(d *Device, a *analysis) Cost {
	c := Cost{FLOPs: a.flops}

	blocks := math.Max(1, a.blockIters)
	threadsPerBlock := math.Max(1, a.threadIters)

	// Occupancy: enough resident threads to hide latency, and block count
	// balanced across compute units (tail effect).
	totalThreads := blocks * threadsPerBlock
	c.Occupancy = math.Min(1, totalThreads/float64(d.MaxConcurrentThreads()))
	cus := float64(d.ComputeUnits)
	if blocks < cus {
		c.Occupancy *= blocks / cus
	} else {
		waves := math.Ceil(blocks / cus)
		c.Occupancy *= blocks / (waves * cus)
	}

	// Lockstep packing: partially filled warps/subgroups waste lanes.
	ws := float64(max(1, d.WarpSize))
	c.WarpUtil = threadsPerBlock / (math.Ceil(threadsPerBlock/ws) * ws)

	// Divergence: guarded work forces both warp paths to issue. Without
	// shared memory (Mali) there is no cheap re-convergence staging, so
	// the penalty is harsher (§4.3).
	c.Divergence = a.divergentFraction
	divPenalty := 1 - 0.5*c.Divergence
	if d.IsGPU && !d.HasSharedMem {
		divPenalty = 1 - 0.7*c.Divergence
	}

	// Unrolling buys ILP and removes loop exit tests (§3.2.2); a serial,
	// un-unrolled innermost loop pays control overhead instead.
	boost := 1.0
	if a.innerUnroll > 1 {
		boost *= math.Min(1.30, 1+0.06*math.Log2(float64(a.innerUnroll)+1))
	}
	if a.innerVector > 1 {
		lanes := math.Min(float64(a.innerVector), float64(d.SIMDWidth))
		boost *= math.Min(1.6, 1+0.18*math.Log2(1+lanes))
	}
	if a.innerSerial {
		boost *= 0.80
	}
	// Subgroup register blocking on Intel: operands come from the shared
	// GRF instead of memory, improving issue efficiency (§3.2.1).
	if a.usesSubgroup && d.HasSubgroups {
		boost *= 1.25
	}
	// Abundant parallelism: kernels with many waves of work amortise
	// scheduling bubbles and reach a higher fraction of peak — why the
	// large-input detection backbones run more efficiently than 224x224
	// classification layers.
	if waves := totalThreads / float64(d.MaxConcurrentThreads()); waves > 1 {
		boost *= math.Min(1.45, 1+0.09*math.Log2(waves))
	}

	eff := d.BaseEfficiency * c.Occupancy * c.WarpUtil * divPenalty * boost
	eff = math.Min(eff, d.BaseEfficiency*2.1)
	c.Efficiency = eff

	if a.flops > 0 {
		c.ComputeSeconds = a.flops / (d.PeakGFLOPs * 1e9 * math.Max(eff, 1e-4))
	}

	// Memory traffic with tiling-aware reuse and coalescing: in-block
	// reuse is captured by the registers/shared working set, and cross-
	// block reuse (neighbouring blocks re-reading weights or halo data) by
	// the device L2 with a temporal-locality window.
	cache := d.cacheBytes(threadsPerBlock)
	l2 := d.L2KB * 1024 * 4 // blocks scheduled close in time share L2 lines
	var traffic float64
	for _, acc := range a.accesses {
		fpPerBlock := acc.footprintPerBlock * 4
		footprint := blocks * fpPerBlock
		streaming := acc.iters * 4
		if footprint > streaming {
			footprint = streaming
		}
		// A footprint that fits the working set is fully reused; beyond
		// capacity, evictions ramp the traffic toward streaming.
		missBlock := clamp01(fpPerBlock/cache - 1)
		bytes := footprint + (streaming-footprint)*missBlock

		global := acc.footprintGlobal * 4
		if global < bytes {
			missL2 := clamp01(global/l2 - 1)
			bytes = global + (bytes-global)*missL2
		}
		bytes *= acc.coalesceWaste(d)
		traffic += bytes
	}
	c.TrafficBytes = traffic
	c.MemorySeconds = traffic / (d.MemBandwidthGBs * 1e9)

	c.LaunchSeconds = d.KernelLaunchUs * 1e-6
	c.Seconds = math.Max(c.ComputeSeconds, c.MemorySeconds) + c.LaunchSeconds
	return c
}

// cacheBytes is the effective reuse capacity available to one block: the
// register files of its resident threads, the shared-local memory if the
// architecture has it, and a per-unit share of L2.
func (d *Device) cacheBytes(threadsPerBlock float64) float64 {
	regs := d.RegisterKBPerThread * 1024 * math.Min(threadsPerBlock, float64(d.ThreadsPerUnit*max(1, d.WarpSize)))
	shared := 0.0
	if d.HasSharedMem {
		shared = d.SharedMemKB * 1024
	}
	l2 := d.L2KB * 1024 / float64(d.ComputeUnits)
	return math.Max(1, regs+shared+l2)
}

func clamp01(x float64) float64 { return math.Max(0, math.Min(1, x)) }

// access records one global-buffer load or store site.
type access struct {
	iters             float64 // dynamic executions of the site
	footprintPerBlock float64 // distinct elements touched per block
	footprintGlobal   float64 // distinct elements touched by the whole launch
	stride            int     // flat-index stride along the coalescing axis
}

// coalesceWaste is the traffic inflation from strided access: a stride-s
// pattern touches s-times the useful cache lines, capped at the line size.
func (a *access) coalesceWaste(d *Device) float64 {
	if !d.IsGPU {
		return 1
	}
	s := a.stride
	if s < 0 {
		s = -s
	}
	if s <= 1 {
		return 1
	}
	const lineFloats = 16
	return math.Min(float64(s), lineFloats)
}

// analysis is the schedule-visible summary the cost model consumes.
type analysis struct {
	flops             float64
	blockIters        float64 // product of blockIdx-bound extents
	threadIters       float64 // product of thread/subgroup-bound extents
	divergentFraction float64
	innerUnroll       int
	innerVector       int
	innerSerial       bool
	usesSubgroup      bool
	accesses          []*access
	globalBufs        map[string]bool
}

type loopFrame struct {
	name   string
	extent int
	kind   ir.ForKind
}

func analyzeKernel(k *te.Kernel) *analysis {
	a := &analysis{globalBufs: map[string]bool{k.Output.Name: true}}
	for _, in := range k.Inputs {
		a.globalBufs[in] = true
	}
	a.blockIters, a.threadIters = 1, 1
	var frames []loopFrame
	var guardedWork, totalWork float64
	var walk func(s ir.Stmt, guarded bool)
	walk = func(s ir.Stmt, guarded bool) {
		switch v := s.(type) {
		case *ir.For:
			ext := extentOf(v.Extent)
			switch v.Kind {
			case ir.ForThreadBlock:
				a.blockIters *= float64(ext)
			case ir.ForThread:
				a.threadIters *= float64(ext)
			case ir.ForSubgroup:
				a.threadIters *= float64(ext)
				a.usesSubgroup = true
			}
			frames = append(frames, loopFrame{v.Var.Name, ext, v.Kind})
			walk(v.Body, guarded)
			frames = frames[:len(frames)-1]
		case *ir.Store:
			iters := itersOf(frames)
			totalWork += iters
			if guarded {
				guardedWork += iters
			}
			a.flops += float64(countFloatOps(v.Value)) * iters
			a.noteInnermost(frames)
			a.recordAccesses(v, frames)
		case *ir.LetStmt:
			walk(v.Body, guarded)
		case *ir.IfThenElse:
			walk(v.Then, true)
			if v.Else != nil {
				walk(v.Else, true)
			}
		case *ir.Allocate:
			walk(v.Body, guarded)
		case *ir.Seq:
			for _, st := range v.Stmts {
				walk(st, guarded)
			}
		}
	}
	walk(k.Body, false)
	if totalWork > 0 {
		a.divergentFraction = guardedWork / totalWork
	}
	return a
}

// noteInnermost classifies the innermost loop enclosing real work.
func (a *analysis) noteInnermost(frames []loopFrame) {
	for i := len(frames) - 1; i >= 0; i-- {
		f := frames[i]
		if f.kind.IsGPUBound() {
			continue // hardware axes are not in-kernel loops
		}
		switch f.kind {
		case ir.ForUnrolled:
			if f.extent > a.innerUnroll {
				a.innerUnroll = f.extent
			}
		case ir.ForVectorized:
			if f.extent > a.innerVector {
				a.innerVector = f.extent
			}
		default:
			if f.extent > 1 {
				a.innerSerial = true
			}
		}
		return
	}
}

// recordAccesses collects every global load in the stored value plus the
// store itself.
func (a *analysis) recordAccesses(st *ir.Store, frames []loopFrame) {
	iters := itersOf(frames)
	coalesceVar := coalescingAxis(frames)
	record := func(buf string, idx ir.Expr) {
		if !a.globalBufs[buf] {
			return
		}
		a.accesses = append(a.accesses, &access{
			iters:             iters,
			footprintPerBlock: footprint(idx, frames),
			footprintGlobal:   footprintGlobal(idx, frames),
			stride:            strideOf(idx, coalesceVar),
		})
	}
	ir.WalkExpr(st.Value, func(e ir.Expr) {
		if l, ok := e.(*ir.Load); ok {
			record(l.Buffer, l.Index)
		}
	})
	record(st.Buffer, st.Index)
}

func itersOf(frames []loopFrame) float64 {
	n := 1.0
	for _, f := range frames {
		n *= float64(f.extent)
	}
	return n
}

// coalescingAxis picks the loop variable whose stride determines memory
// coalescing: the innermost thread/subgroup axis, else the innermost
// vectorized axis, else the innermost loop.
func coalescingAxis(frames []loopFrame) string {
	for i := len(frames) - 1; i >= 0; i-- {
		if frames[i].kind == ir.ForThread || frames[i].kind == ir.ForSubgroup {
			return frames[i].name
		}
	}
	for i := len(frames) - 1; i >= 0; i-- {
		if frames[i].kind == ir.ForVectorized {
			return frames[i].name
		}
	}
	if len(frames) > 0 {
		return frames[len(frames)-1].name
	}
	return ""
}

// strideOf evaluates d(index)/d(var) numerically with all other variables
// at zero. Non-linear indices report their local stride at the origin.
func strideOf(idx ir.Expr, varName string) int {
	if varName == "" {
		return 1
	}
	at := func(v int) float64 {
		bounds := map[string][2]float64{varName: {float64(v), float64(v)}}
		lo, _ := interval(idx, bounds)
		return lo
	}
	return int(at(1) - at(0))
}

// footprint estimates the number of distinct elements the index expression
// can touch within one block (block variables pinned), and footprintGlobal
// the distinct elements across the whole launch. Affine accesses are
// treated as a union of strided progressions: contributions are merged in
// ascending stride order, so overlapping sliding-window taps (kh against
// oh, kw against ow) extend a contiguous span instead of multiplying the
// count, and disjoint large-stride axes replicate it.
func footprint(idx ir.Expr, frames []loopFrame) float64 {
	return footprintWith(idx, frames, false)
}

func footprintGlobal(idx ir.Expr, frames []loopFrame) float64 {
	return footprintWith(idx, frames, true)
}

func footprintWith(idx ir.Expr, frames []loopFrame, includeBlocks bool) float64 {
	bounds := map[string][2]float64{}
	type se struct{ stride, extent float64 }
	var terms []se
	for _, f := range frames {
		if f.kind == ir.ForThreadBlock && !includeBlocks {
			bounds[f.name] = [2]float64{0, 0}
			continue
		}
		bounds[f.name] = [2]float64{0, float64(f.extent - 1)}
		if s := strideOf(idx, f.name); s != 0 && f.extent > 1 {
			terms = append(terms, se{math.Abs(float64(s)), float64(f.extent)})
		}
	}
	lo, hi := interval(idx, bounds)
	rangeSize := math.Max(1, hi-lo+1)

	sort.Slice(terms, func(i, j int) bool { return terms[i].stride < terms[j].stride })
	span, count := 1.0, 1.0
	for _, t := range terms {
		if t.stride <= span {
			span += t.stride * (t.extent - 1) // contiguous/overlapping extension
		} else {
			count *= t.extent // disjoint replication of the current chunks
		}
	}
	return math.Max(1, math.Min(count*span, rangeSize))
}

// interval performs interval arithmetic over the expression. Unknown
// variables default to [0,0].
func interval(e ir.Expr, bounds map[string][2]float64) (lo, hi float64) {
	switch v := e.(type) {
	case *ir.Var:
		if b, ok := bounds[v.Name]; ok {
			return b[0], b[1]
		}
		return 0, 0
	case *ir.IntImm:
		return float64(v.Value), float64(v.Value)
	case *ir.FloatImm:
		return float64(v.Value), float64(v.Value)
	case *ir.Binary:
		alo, ahi := interval(v.A, bounds)
		blo, bhi := interval(v.B, bounds)
		switch v.Op {
		case ir.OpAdd:
			return alo + blo, ahi + bhi
		case ir.OpSub:
			return alo - bhi, ahi - blo
		case ir.OpMul:
			c := []float64{alo * blo, alo * bhi, ahi * blo, ahi * bhi}
			return minSlice(c), maxSlice(c)
		case ir.OpDiv:
			if blo == bhi && blo != 0 {
				x, y := alo/blo, ahi/blo
				return math.Min(x, y), math.Max(x, y)
			}
			return alo, ahi
		case ir.OpMod:
			if blo == bhi && blo > 0 {
				return 0, math.Min(ahi, blo-1)
			}
			return alo, ahi
		case ir.OpMin:
			return math.Min(alo, blo), math.Min(ahi, bhi)
		case ir.OpMax:
			return math.Max(alo, blo), math.Max(ahi, bhi)
		default:
			return 0, 1
		}
	case *ir.Select:
		alo, ahi := interval(v.A, bounds)
		blo, bhi := interval(v.B, bounds)
		return math.Min(alo, blo), math.Max(ahi, bhi)
	case *ir.Cast:
		return interval(v.Value, bounds)
	case *ir.Load:
		return 0, 0 // value range irrelevant to addressing
	default:
		return 0, 0
	}
}

func minSlice(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func maxSlice(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

// countFloatOps counts floating-point operations in an expression tree.
func countFloatOps(e ir.Expr) int {
	n := 0
	ir.WalkExpr(e, func(ex ir.Expr) {
		switch v := ex.(type) {
		case *ir.Binary:
			if v.A.DType() == ir.Float32 || v.B.DType() == ir.Float32 {
				n++
			}
		case *ir.Call:
			if v.Type == ir.Float32 {
				n += 4 // transcendental cost in flop-equivalents
			}
		case *ir.Select:
			n++
		}
	})
	return n
}

func extentOf(e ir.Expr) int {
	if imm, ok := e.(*ir.IntImm); ok {
		return imm.Value
	}
	return 1
}
