// Package graph implements the computational-graph layer of Figure 1: the
// model representation consumed from the frontend, the graph-level
// optimization passes (§3.2.3 — operator fusion, batch-norm folding,
// constant pre-computation, layout assignment hooks), and the two-pass
// heterogeneous device-placement algorithm with data-copy insertion that
// realises the CPU fallback of §3.1.2.
package graph

import (
	"fmt"

	"unigpu/internal/tensor"
)

// DeviceClass is where a node is placed by the fallback pass.
type DeviceClass int

const (
	OnGPU DeviceClass = iota
	OnCPU
)

func (d DeviceClass) String() string {
	if d == OnGPU {
		return "gpu"
	}
	return "cpu"
}

// Operator is one graph-node computation.
type Operator interface {
	// Kind names the operator ("conv2d", "box_nms", ...).
	Kind() string
	// InferShape computes the output shape from input shapes.
	InferShape(ins []tensor.Shape) tensor.Shape
	// ExecuteInto computes the output into out, a tensor of the inferred
	// shape, overwriting every element: out may be a reused buffer that
	// still holds an earlier run's values.
	ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor)
	// GPUFriendly reports whether the operator appears in the list of
	// known GPU-performant operators used by the placement pass (§3.1.2).
	GPUFriendly() bool
}

// PreparedOp is the one form in which the runtime executes a node: an
// operator bound at plan time to its node's constant operands, with
// whatever it packed from them. It is read-only afterwards and shared by
// every session of the plan, so per-run state lives in the scratch it
// declares, never in the PreparedOp.
type PreparedOp interface {
	// Scratch declares the per-run workspace: elems elements of dt (0 for
	// none). The planner reserves it as an arena slot live only while the
	// node runs.
	Scratch() (elems int, dt tensor.DType)
	// Label is the profiler kind: the operator kind, refined by the routine
	// and storage dtype where one was chosen ("conv2d/gemm@fp16").
	Label() string
	// Run computes the node's output into out, overwriting every element.
	// scratch is a rank-1 tensor of exactly the declared length and dtype,
	// nil when none was declared.
	Run(out *tensor.Tensor, ins []*tensor.Tensor, scratch *tensor.Tensor) error
}

// Preparer is implemented by operators with plan-time work of their own
// (packing constant weights, choosing a routine, sizing a workspace).
type Preparer interface {
	Prepare(n *Node) (PreparedOp, error)
}

// Prepare returns node n's PreparedOp: the operator's own when it is a
// Preparer, else its ExecuteInto.
func Prepare(n *Node) (PreparedOp, error) {
	if op, ok := n.Op.(Preparer); ok {
		return op.Prepare(n)
	}
	return intoOp{n.Op}, nil
}

// intoOp adapts an Operator's ExecuteInto: no scratch, no plan-time state.
type intoOp struct{ Operator }

func (o intoOp) Scratch() (int, tensor.DType) { return 0, tensor.Float32 }
func (o intoOp) Label() string                { return o.Kind() }
func (o intoOp) Run(out *tensor.Tensor, ins []*tensor.Tensor, _ *tensor.Tensor) error {
	o.ExecuteInto(out, ins)
	return nil
}

// Eval computes op node n on ins into a fresh tensor: n.OutShape at
// n.DType (under QScale when int8), the buffer a plan gives the node.
// Calibration and constant pre-computation evaluate nodes one at a time
// through it.
func Eval(n *Node, ins []*tensor.Tensor) *tensor.Tensor {
	out := tensor.NewTyped(n.DType, n.OutShape...)
	if n.DType == tensor.Int8 {
		out.SetScale(n.QScale)
	}
	n.Op.ExecuteInto(out, ins)
	return out
}

// Node is one vertex of the computational graph.
type Node struct {
	ID     int
	Name   string
	Op     Operator
	Inputs []*Node

	OutShape tensor.Shape
	Device   DeviceClass

	// Value holds the constant for Constant nodes, and the pre-computed
	// result after the precompute pass.
	Value *tensor.Tensor

	// DType is the storage type of the node's output buffer, assigned by
	// the quantization pass (QuantizeGraph). The zero value Float32 keeps
	// every pre-existing graph full precision. QScale is the per-tensor
	// dequantization scale of an Int8-typed node (from calibration).
	DType  tensor.DType
	QScale float32
}

// IsConstant reports whether the node carries a compile-time value.
func (n *Node) IsConstant() bool { return n.Op == nil && n.Value != nil }

// IsInput reports whether the node is a graph input placeholder.
func (n *Node) IsInput() bool { return n.Op == nil && n.Value == nil }

// StorageDType is the dtype this node's value presents to consumers:
// constants report their tensor's storage, inputs are fed float32, and op
// nodes carry their assigned dtype tag.
func (n *Node) StorageDType() tensor.DType {
	if n.IsConstant() {
		return n.Value.DType()
	}
	return n.DType
}

// Graph is a DAG of operator nodes in topological order.
type Graph struct {
	Nodes   []*Node
	Outputs []*Node
	nextID  int
}

// New creates an empty graph.
func New() *Graph { return &Graph{} }

// Input adds a named graph input of the given shape.
func (g *Graph) Input(name string, shape ...int) *Node {
	n := &Node{ID: g.nextID, Name: name, OutShape: tensor.Shape(shape).Clone()}
	g.nextID++
	g.Nodes = append(g.Nodes, n)
	return n
}

// Constant adds a weight/parameter node.
func (g *Graph) Constant(name string, value *tensor.Tensor) *Node {
	n := &Node{ID: g.nextID, Name: name, Value: value, OutShape: value.Shape().Clone()}
	g.nextID++
	g.Nodes = append(g.Nodes, n)
	return n
}

// Apply adds an operator node consuming the given inputs.
func (g *Graph) Apply(name string, op Operator, inputs ...*Node) *Node {
	shapes := make([]tensor.Shape, len(inputs))
	for i, in := range inputs {
		shapes[i] = in.OutShape
	}
	n := &Node{ID: g.nextID, Name: name, Op: op, Inputs: inputs, OutShape: op.InferShape(shapes)}
	g.nextID++
	g.Nodes = append(g.Nodes, n)
	return n
}

// SetOutputs marks the graph outputs.
func (g *Graph) SetOutputs(outs ...*Node) { g.Outputs = outs }

// OpNodes returns the operator nodes (not inputs/constants) in topological
// order.
func (g *Graph) OpNodes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Op != nil {
			out = append(out, n)
		}
	}
	return out
}

// Consumers maps each node to the nodes that read it.
func (g *Graph) Consumers() map[*Node][]*Node {
	m := make(map[*Node][]*Node)
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			m[in] = append(m[in], n)
		}
	}
	return m
}

// Validate checks topological ordering and dangling references.
func (g *Graph) Validate() error {
	pos := make(map[*Node]int, len(g.Nodes))
	for i, n := range g.Nodes {
		pos[n] = i
	}
	for i, n := range g.Nodes {
		for _, in := range n.Inputs {
			p, ok := pos[in]
			if !ok {
				return fmt.Errorf("graph: node %q reads a node not in the graph", n.Name)
			}
			if p >= i {
				return fmt.Errorf("graph: node %q reads node %q that appears later", n.Name, in.Name)
			}
		}
	}
	for _, o := range g.Outputs {
		if _, ok := pos[o]; !ok {
			return fmt.Errorf("graph: output %q not in the graph", o.Name)
		}
	}
	return nil
}

// EliminateDead removes nodes not reachable from the outputs.
func (g *Graph) EliminateDead() int {
	live := map[*Node]bool{}
	var mark func(n *Node)
	mark = func(n *Node) {
		if live[n] {
			return
		}
		live[n] = true
		for _, in := range n.Inputs {
			mark(in)
		}
	}
	for _, o := range g.Outputs {
		mark(o)
	}
	kept := g.Nodes[:0]
	removed := 0
	for _, n := range g.Nodes {
		if live[n] || n.IsInput() {
			kept = append(kept, n)
		} else {
			removed++
		}
	}
	g.Nodes = kept
	return removed
}

// replaceUses rewires every consumer (and output) of old to read repl.
func (g *Graph) replaceUses(old, repl *Node) {
	for _, n := range g.Nodes {
		for i, in := range n.Inputs {
			if in == old {
				n.Inputs[i] = repl
			}
		}
	}
	for i, o := range g.Outputs {
		if o == old {
			g.Outputs[i] = repl
		}
	}
}

// Stats summarises the graph for reports.
type Stats struct {
	Ops       int
	Convs     int
	OnCPU     int
	Copies    int
	Constants int
}

// Summary counts node categories.
func (g *Graph) Summary() Stats {
	var s Stats
	for _, n := range g.Nodes {
		switch {
		case n.IsConstant():
			s.Constants++
		case n.Op != nil:
			s.Ops++
			if n.Op.Kind() == "conv2d" {
				s.Convs++
			}
			if n.Op.Kind() == "device_copy" {
				s.Copies++
			}
			if n.Device == OnCPU {
				s.OnCPU++
			}
		}
	}
	return s
}
