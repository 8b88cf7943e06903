package runtime

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"unigpu/internal/graph"
	"unigpu/internal/obs"
	"unigpu/internal/par"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

// Serving metric. The handle is cached once: Registry.Reset zeroes metrics
// in place, so it stays valid across resets.
var mArenaReused = obs.DefaultRegistry.Counter("arena.bytes_reused")

// The lanes a node span or request-trace event names: where a node ran. A
// GPU-placed node runs on laneGPU unless the fault gate sends it back to
// the CPU.
const (
	laneGPU = "gpu/0"
	laneCPU = "cpu/0"
)

// srcKind says where a node input (or graph output) value comes from.
type srcKind uint8

const (
	srcNode  srcKind = iota // another operator node's output
	srcConst                // a compile-time constant
	srcFeed                 // a graph input, bound per Run
)

// valueRef resolves one input or output value.
type valueRef struct {
	kind srcKind
	node int            // srcNode: plan-node index
	tens *tensor.Tensor // srcConst: the constant
	name string         // srcFeed: graph-input name
}

// inputSpec is one graph input the caller must feed.
type inputSpec struct {
	name  string
	shape tensor.Shape
}

// feedArg is an argument slot that must be refreshed from feeds per Run.
type feedArg struct {
	node, arg int
	name      string
}

// planNode is one operator in the compiled schedule.
type planNode struct {
	name     string
	kind     string
	profKind string // the PreparedOp's label (e.g. conv2d/gemm@fp16)
	device   graph.DeviceClass
	op       graph.PreparedOp // prepared once here, shared read-only by every session
	args     []valueRef
	outShape tensor.Shape
	elems    int
	slot     int  // arena slot index
	gpu      bool // dispatched through the simulated GPU's fault gate

	// dtype is the storage type of the node's output buffer (from the
	// graph node, set by the quantization pass; Float32 otherwise) and
	// qscale the Int8 dequantization scale. Slots are dtype-segregated:
	// a buffer is only ever reused at its own element width.
	dtype  tensor.DType
	qscale float32

	// scratchSlot is the arena slot holding the workspace op.Scratch
	// declares, so Session.Run stays allocation-free; -1 when it needs none.
	scratchSlot int
}

// Plan is a compiled execution plan for one optimized graph: the
// topological schedule and a liveness-based static assignment of every
// intermediate tensor to an arena slot. A Plan is immutable and safe to
// share between any number of Sessions; the graph it was compiled from
// must not be mutated afterwards.
//
// This is the one-time half of the split the steady-state serving loop
// needs: everything Execute used to recompute per call (validation,
// reference counts, allocation decisions) happens exactly once here.
type Plan struct {
	nodes     []planNode
	inputs    []inputSpec
	feedArgs  []feedArg
	outputs   []valueRef
	slotElems []int
	slotDType []tensor.DType
	// Per-width arena pool capacities in elements. arenaElems keeps the
	// historical fp32 name (and value) so fp32-only plans are unchanged.
	arenaElems   int // float32 pool
	arenaElems16 int // binary16 pool
	arenaElems8  int // int8 pool
	peakLive     int // refcount-liveness peak, as the seed executor measured
	interBytes   int // total intermediate bytes per run (without reuse)

	rec *planRecord // registry record: metadata and telemetry label, see SetLabel
}

// NewPlan validates and compiles the graph into an execution plan.
func NewPlan(g *graph.Graph) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{}
	idx := make(map[*graph.Node]int)
	var gnodes []*graph.Node // op nodes, parallel to p.nodes

	for _, n := range g.Nodes {
		if n.IsInput() {
			p.inputs = append(p.inputs, inputSpec{name: n.Name, shape: n.OutShape})
		}
	}

	// Reference counts for liveness, exactly as the seed executor built
	// them: one per consuming edge, plus one pin per graph output.
	refs := map[*graph.Node]int{}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			refs[in]++
		}
	}
	for _, o := range g.Outputs {
		refs[o]++
	}

	// Pass 1: plan nodes and their argument sources.
	for _, n := range g.Nodes {
		if n.Op == nil {
			continue
		}
		i := len(p.nodes)
		idx[n] = i
		pn := planNode{
			name: n.Name, kind: n.Op.Kind(), device: n.Device,
			outShape: n.OutShape, elems: n.OutShape.NumElements(),
			gpu: n.Device == graph.OnGPU, scratchSlot: -1,
			dtype: n.DType, qscale: n.QScale,
		}
		var err error
		if pn.op, err = graph.Prepare(n); err != nil {
			return nil, fmt.Errorf("runtime: node %q: %w", n.Name, err)
		}
		pn.profKind = pn.op.Label()
		pn.args = make([]valueRef, len(n.Inputs))
		for ai, in := range n.Inputs {
			switch {
			case in.IsConstant():
				pn.args[ai] = valueRef{kind: srcConst, tens: in.Value}
			case in.IsInput():
				pn.args[ai] = valueRef{kind: srcFeed, name: in.Name}
				p.feedArgs = append(p.feedArgs, feedArg{node: i, arg: ai, name: in.Name})
			default:
				pn.args[ai] = valueRef{kind: srcNode, node: idx[in]}
			}
		}
		p.nodes = append(p.nodes, pn)
		gnodes = append(gnodes, n)
	}

	// Pass 2: replay the seed executor's reference-counted liveness in
	// topological order — the order the session runs the nodes in —
	// assigning each intermediate a reusable arena slot (best fit, growing
	// the largest free slot when nothing fits). A slot freed here is only
	// re-occupied by a later node, after every reader of its previous
	// occupant has run.
	type slotState struct {
		elems int
		dtype tensor.DType // slots only ever hold one element width
	}
	var slots []slotState
	var free []int

	// acquire takes the best-fitting free slot of the right dtype for elems
	// (growing the largest free same-dtype slot when nothing fits,
	// appending when none are free). Slots are never reused across element
	// widths: each lives in its dtype's arena pool.
	acquire := func(elems int, dt tensor.DType) int {
		s := -1
		bestIdx, largestIdx := -1, -1
		for fi, fs := range free {
			if slots[fs].dtype != dt {
				continue
			}
			c := slots[fs].elems
			if c >= elems && (bestIdx == -1 || c < slots[free[bestIdx]].elems) {
				bestIdx = fi
			}
			if largestIdx == -1 || c > slots[free[largestIdx]].elems {
				largestIdx = fi
			}
		}
		pick := bestIdx
		if pick == -1 {
			pick = largestIdx
		}
		if pick >= 0 {
			s = free[pick]
			free = append(free[:pick], free[pick+1:]...)
			if slots[s].elems < elems {
				slots[s].elems = elems
			}
		} else {
			slots = append(slots, slotState{elems: elems, dtype: dt})
			s = len(slots) - 1
		}
		return s
	}

	live, peak := 0, 0
	for i, n := range gnodes {
		pn := &p.nodes[i]
		bytes := pn.dtype.Size() * pn.elems
		p.interBytes += bytes

		// Acquire the output slot before releasing inputs, so a node never
		// writes over a buffer it is still reading.
		s := acquire(pn.elems, pn.dtype)
		pn.slot = s

		// An operator's scratch lives only while the node runs: acquire a
		// slot after the output's, and free it at once so the very next
		// node may reuse it. Scratch is deliberately excluded from the
		// liveness accounting — peakLive/interBytes keep the seed
		// executor's intermediate-tensor semantics.
		if elems, dt := pn.op.Scratch(); elems > 0 {
			sc := acquire(elems, dt)
			pn.scratchSlot = sc
			free = append(free, sc)
		}

		live += bytes
		if live > peak {
			peak = live
		}
		// Release inputs whose last consumer has run.
		for _, in := range n.Inputs {
			if in.Op == nil {
				continue // feeds and constants are caller-owned
			}
			refs[in]--
			if refs[in] == 0 {
				j := idx[in]
				live -= p.nodes[j].dtype.Size() * p.nodes[j].elems
				free = append(free, p.nodes[j].slot)
			}
		}
		// A node with no consumers that is not an output dies immediately.
		if refs[n] == 0 {
			live -= bytes
			free = append(free, s)
		}
	}
	p.peakLive = peak

	p.slotElems = make([]int, len(slots))
	p.slotDType = make([]tensor.DType, len(slots))
	for si, st := range slots {
		p.slotElems[si] = st.elems
		p.slotDType[si] = st.dtype
		switch st.dtype {
		case tensor.Float16:
			p.arenaElems16 += st.elems
		case tensor.Int8:
			p.arenaElems8 += st.elems
		default:
			p.arenaElems += st.elems
		}
	}

	p.outputs = make([]valueRef, len(g.Outputs))
	for k, o := range g.Outputs {
		switch {
		case o.IsConstant():
			p.outputs[k] = valueRef{kind: srcConst, tens: o.Value}
		case o.IsInput():
			p.outputs[k] = valueRef{kind: srcFeed, name: o.Name}
		default:
			p.outputs[k] = valueRef{kind: srcNode, node: idx[o]}
		}
	}
	registerPlan(p)
	return p, nil
}

// ArenaBytes is the planned arena size: what one Session preallocates for
// all intermediate tensors, summed across the per-width pools (4-byte
// fp32, 2-byte fp16, 1-byte int8 slots each count at their real width).
func (p *Plan) ArenaBytes() int { return 4*p.arenaElems + 2*p.arenaElems16 + p.arenaElems8 }

// PeakLiveBytes is the reference-counted liveness peak the seed executor
// would report for this graph — the lower bound the slot assignment
// approaches.
func (p *Plan) PeakLiveBytes() int { return p.peakLive }

// IntermediateBytes is the total bytes of intermediates produced per run
// (what a pool-less executor allocates every inference).
func (p *Plan) IntermediateBytes() int { return p.interBytes }

// NumNodes is the number of operator nodes in the schedule.
func (p *Plan) NumNodes() int { return len(p.nodes) }

// SessionOptions configures one execution session.
type SessionOptions struct {
	// Model labels this session's telemetry — profiler rows, request
	// traces and SLO windows (default "default"). unigpu sets it to the
	// compiled model's name.
	Model string
	// Profiler receives sampled per-node timings from this session's runs
	// (nil: none). Handles are resolved once here, so a sampled run costs
	// two clock reads per node and no allocations. SessionPool installs
	// obs.DefaultProfiler when it is nil.
	Profiler *obs.Profiler

	// Faults attaches a simulated device-fault injector: every GPU-placed
	// node's dispatch passes through it, and injected faults exercise the
	// degraded paths — bounded jittered retries for transient faults, and
	// dynamic re-execution on the CPU lane (same bit-identical kernels)
	// for persistent ones. Nil disables the whole gate; the fault-free hot
	// path costs one pointer check per node and zero allocations.
	Faults *sim.FaultInjector
	// Breaker is the per-device circuit breaker quarantining a failing
	// GPU. Share one Breaker across every session serving the same device
	// (SessionPool does); when nil and Faults is set, the session creates
	// a private one with default options.
	Breaker *Breaker
	// RetryBackoff is the base jittered exponential backoff between
	// retries (0 = default 200µs).
	RetryBackoff time.Duration
}

// Session is the reusable steady-state run loop over one Plan: it owns a
// preallocated arena holding every intermediate tensor, so Run performs no
// heap allocations for intermediates, and it runs the nodes in topological
// order on the calling goroutine. A Session is not safe for concurrent use;
// concurrent serving uses one Session per goroutine over a shared Plan.
type Session struct {
	plan    *Plan
	arena   *tensor.Arena
	outs    []*tensor.Tensor   // per-node arena-backed outputs
	scratch []*tensor.Tensor   // per-node arena-backed operator workspace (nil when unused)
	args    [][]*tensor.Tensor // per-node inputs; feed entries refreshed per Run
	results []*tensor.Tensor

	// Telemetry. profH holds the per-node profiler handles resolved at
	// construction; req and profSampled are per-run state set by
	// RunContext.
	prof        *obs.Profiler
	profH       []obs.ProfHandle
	profSampled bool
	req         *obs.ActiveRequest

	// Fault tolerance (see SessionOptions).
	faults       *sim.FaultInjector
	breaker      *Breaker
	retryBackoff time.Duration
	jitterState  uint64
}

// NewSession creates a zero-allocation session with default options.
func (p *Plan) NewSession() *Session { return p.NewSessionWith(SessionOptions{}) }

// NewSessionWith creates a session with explicit options (telemetry,
// fault tolerance).
func (p *Plan) NewSessionWith(opts SessionOptions) *Session {
	s := &Session{
		plan:         p,
		arena:        tensor.NewArenaMixed(p.arenaElems, p.arenaElems16, p.arenaElems8),
		faults:       opts.Faults,
		breaker:      opts.Breaker,
		retryBackoff: opts.RetryBackoff,
		jitterState:  0x9e3779b97f4a7c15,
	}
	if s.retryBackoff <= 0 {
		s.retryBackoff = 200 * time.Microsecond
	}
	if s.faults != nil && s.breaker == nil {
		s.breaker = NewBreaker(BreakerOptions{})
	}
	// Carve one buffer per slot out of the width-matching arena pool.
	slotBuf := make([][]float32, len(p.slotElems))
	slotBuf16 := make([][]uint16, len(p.slotElems))
	slotBuf8 := make([][]int8, len(p.slotElems))
	for si, e := range p.slotElems {
		switch p.slotDType[si] {
		case tensor.Float16:
			slotBuf16[si] = s.arena.Alloc16(e)
		case tensor.Int8:
			slotBuf8[si] = s.arena.Alloc8(e)
		default:
			slotBuf[si] = s.arena.Alloc(e)
		}
	}
	// view is a tensor over the leading elems elements of a slot's buffer.
	view := func(slot, elems int, qscale float32, shape ...int) *tensor.Tensor {
		switch p.slotDType[slot] {
		case tensor.Float16:
			return tensor.FromHalf(slotBuf16[slot][:elems:elems], shape...)
		case tensor.Int8:
			return tensor.FromInt8(slotBuf8[slot][:elems:elems], qscale, shape...)
		}
		return tensor.FromData(slotBuf[slot][:elems:elems], shape...)
	}
	s.outs = make([]*tensor.Tensor, len(p.nodes))
	s.scratch = make([]*tensor.Tensor, len(p.nodes))
	s.args = make([][]*tensor.Tensor, len(p.nodes))
	for i := range p.nodes {
		pn := &p.nodes[i]
		s.outs[i] = view(pn.slot, pn.elems, pn.qscale, pn.outShape...)
		if pn.scratchSlot >= 0 {
			elems, _ := pn.op.Scratch()
			s.scratch[i] = view(pn.scratchSlot, elems, 1, elems)
		}
		a := make([]*tensor.Tensor, len(pn.args))
		for ai, vr := range pn.args {
			switch vr.kind {
			case srcConst:
				a[ai] = vr.tens
			case srcNode:
				a[ai] = s.outs[vr.node]
			}
		}
		s.args[i] = a
	}
	s.results = make([]*tensor.Tensor, len(p.outputs))

	// Telemetry: with a profiler attached, one pre-resolved handle per node
	// so sampled runs record without a map lookup or allocation.
	if opts.Profiler != nil {
		model := opts.Model
		if model == "" {
			model = "default"
		}
		s.prof = opts.Profiler
		s.profH = make([]obs.ProfHandle, len(p.nodes))
		for i := range p.nodes {
			pn := &p.nodes[i]
			s.profH[i] = s.prof.Handle(obs.ProfKey{
				Model: model, Node: pn.name, Kind: pn.profKind, Device: pn.device.String(),
			})
		}
	}
	return s
}

// validateFeeds checks every plan input against the fed tensors before
// any kernel runs, so a mismatch surfaces as a named error instead of a
// deep kernel panic or silent corruption. Graph inputs are dense float32
// whatever the plan's storage dtypes: narrowing is the graph's own cast
// nodes' job.
func (p *Plan) validateFeeds(feeds map[string]*tensor.Tensor) error {
	for _, in := range p.inputs {
		t, ok := feeds[in.name]
		if !ok {
			return fmt.Errorf("runtime: input %q not fed", in.name)
		}
		if t == nil {
			return fmt.Errorf("runtime: input %q fed a nil tensor, want shape %v", in.name, in.shape)
		}
		if !t.Shape().Equal(in.shape) {
			return fmt.Errorf("runtime: input %q shape %v, want %v", in.name, t.Shape(), in.shape)
		}
		if t.DType() != tensor.Float32 {
			return fmt.Errorf("runtime: input %q fed a %s tensor; graph inputs are float32 (the quantization pass inserts casts)", in.name, t.DType())
		}
		if len(t.Data()) != in.shape.NumElements() {
			return fmt.Errorf("runtime: input %q backing data has %d elements, shape %v needs %d",
				in.name, len(t.Data()), in.shape, in.shape.NumElements())
		}
	}
	return nil
}

// Run executes the plan against the given feeds. The returned output
// tensors are arena-backed: they are valid until the session's next Run
// and must be copied to outlive it. The result slice itself is also reused
// across Runs.
func (s *Session) Run(feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	return s.RunContext(context.Background(), feeds)
}

// RunContext is Run with cancellation: the context is honoured between
// nodes, inside a simulated GPU queue hang and during retry backoff,
// returning ctx.Err() promptly. A cancelled run leaves the session
// reusable. The nodes run in topological order on the calling goroutine;
// with no fault injector attached the run performs zero heap allocations.
// A run is one compute stream to the host's worker pool (internal/par):
// its operators' fan-outs share the cores with the other runs in flight.
func (s *Session) RunContext(ctx context.Context, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	p := s.plan
	if err := p.validateFeeds(feeds); err != nil {
		return nil, err
	}
	par.Enter()
	defer par.Exit()
	for _, fa := range p.feedArgs {
		s.args[fa.node][fa.arg] = feeds[fa.name]
	}

	traceOn := obs.Enabled()
	// Per-run telemetry state: the request recorder rides the context (only
	// sampled requests carry one), and the profiler admits 1 in N runs.
	s.req = obs.RequestFromContext(ctx)
	s.profSampled = s.profH != nil && s.prof.SampleRun()
	defer s.clearRunTelemetry()
	sp := obs.Start("runtime.execute")
	if traceOn {
		sp.SetAttrs(obs.KVInt("nodes", len(p.nodes)))
		mArenaReused.Add(int64(p.interBytes - p.ArenaBytes()))
	}
	defer sp.End()

	for i := range p.nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		redo := false
		if p.nodes[i].gpu && s.faults != nil {
			ok, err := s.gpuGate(ctx, i)
			if err != nil {
				return nil, err
			}
			if !ok {
				// Persistent GPU failure or quarantined device: re-execute
				// on the host CPU with the same bit-identical kernels.
				mCPUReexec.Inc()
				redo = true
			}
		}
		if err := s.runNode(i, sp, traceOn, redo); err != nil {
			return nil, err
		}
	}
	for k, vr := range p.outputs {
		switch vr.kind {
		case srcNode:
			s.results[k] = s.outs[vr.node]
		case srcConst:
			s.results[k] = vr.tens
		case srcFeed:
			s.results[k] = feeds[vr.name]
		}
	}
	return s.results, nil
}

// clearRunTelemetry drops the per-run telemetry state when RunContext
// returns, so a finished request is not held past its run.
func (s *Session) clearRunTelemetry() {
	s.req = nil
	s.profSampled = false
}

// runNode executes one scheduled node into its arena slot. redo marks a
// CPU re-execution of a failed GPU dispatch; it and the lane the node ran
// on (laneGPU, or laneCPU for CPU-placed and re-executed nodes) flow into
// the node's trace span and the request recorder when present. An operator
// panic becomes a structured *NodeError carrying the node, its device and
// the goroutine stack, so a poisoned kernel surfaces as an error instead of
// crashing the process.
func (s *Session) runNode(i int, parent *obs.Span, traceOn bool, redo bool) (err error) {
	pn := &s.plan.nodes[i]
	defer func() {
		if r := recover(); r != nil {
			err = &NodeError{
				Node: pn.name, Device: pn.device,
				Cause: fmt.Errorf("panic: %v", r),
				Stack: debug.Stack(),
			}
		}
	}()
	ins := s.args[i]
	lane := laneCPU
	if pn.gpu && !redo {
		lane = laneGPU
	}
	var nsp *obs.Span
	if traceOn {
		nsp = parent.Child("node:"+pn.name,
			obs.KV("kind", pn.kind), obs.KV("device", pn.device.String()),
			obs.KV(obs.LaneAttr, lane))
	}
	timed := traceOn || s.profSampled || s.req != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	if err := pn.op.Run(s.outs[i], ins, s.scratch[i]); err != nil {
		if traceOn {
			nsp.End()
		}
		return fmt.Errorf("runtime: node %q: %w", pn.name, err)
	}
	if timed {
		wall := time.Since(start)
		if traceOn {
			nsp.SetAttrs(obs.KVInt("out_bytes", pn.dtype.Size()*pn.elems))
			nsp.End()
			obs.Observe("exec.node_wall_ns", float64(wall.Nanoseconds()))
		}
		if s.profSampled {
			s.profH[i].Record(float64(wall.Nanoseconds()))
		}
		s.req.AddNode(pn.name, pn.profKind, lane, start, wall, redo) // nil-safe
	}
	return nil
}
