package te

import (
	"fmt"

	"unigpu/internal/ir"
)

// Axis is a handle to one loop axis of a scheduled stage. Schedule
// primitives consume and produce Axis handles, exactly like TVM's s[C].op
// axis objects.
type Axis struct {
	node *axisNode
}

// Name returns the underlying loop variable name.
func (a Axis) Name() string { return a.node.iv.Var.Name }

type axisNode struct {
	iv     *IterVar
	kind   ir.ForKind
	reduce bool
}

// splitRel records how the two axes a split derives reconstruct their
// parent.
type splitRel struct {
	parent, outer, inner *axisNode
	factor               int
}

// Schedule is a mutable plan for lowering one ComputeOp.
type Schedule struct {
	Op        *ComputeOp
	leaves    []*axisNode // loop order, outermost first
	relations []*splitRel
	roots     map[*axisNode]bool
	// spatialGuards is populated by resolveRoots during lowering: boundary
	// guards that involve only spatial axes, re-applied to the final store
	// of a reduction kernel.
	spatialGuards []ir.Expr
}

// NewSchedule creates the default schedule: spatial axes outermost in
// declaration order, then reduce axes, all serial.
func NewSchedule(t *Tensor) *Schedule {
	if t.Op == nil {
		panic("te: cannot schedule a placeholder")
	}
	s := &Schedule{Op: t.Op, roots: map[*axisNode]bool{}}
	for _, iv := range t.Op.Axes {
		n := &axisNode{iv: iv}
		s.leaves = append(s.leaves, n)
		s.roots[n] = true
	}
	for _, iv := range t.Op.ReduceAxes {
		n := &axisNode{iv: iv, reduce: true}
		s.leaves = append(s.leaves, n)
		s.roots[n] = true
	}
	return s
}

// SpatialAxes returns handles for the output axes in declaration order.
// Valid immediately after NewSchedule (before any splits).
func (s *Schedule) SpatialAxes() []Axis {
	var out []Axis
	for _, n := range s.leaves {
		if !n.reduce {
			out = append(out, Axis{n})
		}
	}
	return out
}

// ReduceAxes returns handles for the reduction axes.
func (s *Schedule) ReduceAxes() []Axis {
	var out []Axis
	for _, n := range s.leaves {
		if n.reduce {
			out = append(out, Axis{n})
		}
	}
	return out
}

func (s *Schedule) leafIndex(n *axisNode) int {
	for i, l := range s.leaves {
		if l == n {
			return i
		}
	}
	return -1
}

// Split divides axis into (outer, inner) with the inner extent equal to
// factor. If factor does not divide the extent, the lowering emits a
// boundary guard. The two new axes replace the original in the loop order.
func (s *Schedule) Split(a Axis, factor int) (outer, inner Axis) {
	if factor <= 0 {
		panic("te: split factor must be positive")
	}
	idx := s.leafIndex(a.node)
	if idx < 0 {
		panic(fmt.Sprintf("te: axis %s is not a current leaf", a.Name()))
	}
	ext := a.node.iv.Extent
	o := &axisNode{iv: newIter(a.Name()+".o", (ext+factor-1)/factor), reduce: a.node.reduce}
	i := &axisNode{iv: newIter(a.Name()+".i", factor), reduce: a.node.reduce}
	s.relations = append(s.relations, &splitRel{parent: a.node, outer: o, inner: i, factor: factor})
	s.leaves = append(s.leaves[:idx], append([]*axisNode{o, i}, s.leaves[idx+1:]...)...)
	return Axis{o}, Axis{i}
}

// Reorder places the given axes in the stated relative order, keeping axes
// not mentioned in their current positions.
func (s *Schedule) Reorder(axes ...Axis) {
	want := make([]*axisNode, 0, len(axes))
	mentioned := map[*axisNode]bool{}
	for _, a := range axes {
		if s.leafIndex(a.node) < 0 {
			panic(fmt.Sprintf("te: reorder of non-leaf axis %s", a.Name()))
		}
		if mentioned[a.node] {
			panic("te: duplicate axis in reorder")
		}
		mentioned[a.node] = true
		want = append(want, a.node)
	}
	k := 0
	for i, n := range s.leaves {
		if mentioned[n] {
			s.leaves[i] = want[k]
			k++
		}
	}
}

// Bind assigns the axis to a GPU hardware dimension.
func (s *Schedule) Bind(a Axis, kind ir.ForKind) {
	if !kind.IsGPUBound() {
		panic("te: Bind requires a GPU axis kind")
	}
	if a.node.reduce {
		panic("te: cannot bind a reduction axis to a hardware dimension")
	}
	a.node.kind = kind
}

// Unroll marks the axis for full unrolling.
func (s *Schedule) Unroll(a Axis) { a.node.kind = ir.ForUnrolled }

// Vectorize maps the axis onto SIMD lanes. Only innermost axes should be
// vectorized; lowering validates this.
func (s *Schedule) Vectorize(a Axis) { a.node.kind = ir.ForVectorized }

// Leaves exposes the current loop order as (name, extent, kind, isReduce)
// tuples for the cost model.
type LeafInfo struct {
	Name   string
	Extent int
	Kind   ir.ForKind
	Reduce bool
}

// LeafInfos returns the loop order outermost-first.
func (s *Schedule) LeafInfos() []LeafInfo {
	out := make([]LeafInfo, len(s.leaves))
	for i, n := range s.leaves {
		out[i] = LeafInfo{Name: n.iv.Var.Name, Extent: n.iv.Extent, Kind: n.kind, Reduce: n.reduce}
	}
	return out
}
