// Package te implements the tensor-expression layer: declarative tensor
// computations (Placeholder / Compute / reductions) plus a schedule tree
// whose primitives — split, reorder, bind, unroll, vectorize —
// rewrite how the computation lowers to the loop IR of internal/ir.
//
// This mirrors the Halide-inherited design the paper builds on (§2.3): the
// algorithm is written once, and per-device optimization is expressed purely
// as a schedule, so one definition of conv2d serves Intel, Mali, and Nvidia
// templates alike.
package te

import (
	"fmt"

	"unigpu/internal/ir"
)

// Tensor is a symbolic tensor: either a placeholder (external input) or the
// result of a ComputeOp.
type Tensor struct {
	Name  string
	Shape []int
	Op    *ComputeOp // nil for placeholders
}

// Access builds a load of the tensor at the given (row-major) coordinates.
func (t *Tensor) Access(idx ...ir.Expr) ir.Expr {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("te: %s has rank %d, got %d indices", t.Name, len(t.Shape), len(idx)))
	}
	return ir.LoadF(t.Name, t.flatIndex(idx))
}

func (t *Tensor) flatIndex(idx []ir.Expr) ir.Expr {
	flat := ir.Expr(ir.Imm(0))
	for i, d := range t.Shape {
		_ = d
		flat = ir.Mul(flat, ir.Imm(t.Shape[i]))
		flat = ir.Add(flat, idx[i])
	}
	return flat
}

// Placeholder declares an external input tensor.
func Placeholder(name string, shape ...int) *Tensor {
	return &Tensor{Name: name, Shape: shape}
}

// IterVar is an iteration axis with a static extent.
type IterVar struct {
	Var    *ir.Var
	Extent int
}

func newIter(name string, extent int) *IterVar {
	return &IterVar{Var: ir.NewVar(name), Extent: extent}
}

// ComputeOp defines an output tensor elementwise over its axes, optionally
// reducing over ReduceAxes with the Combine operator starting from Init.
type ComputeOp struct {
	Out        *Tensor
	Axes       []*IterVar // one per output dimension
	ReduceAxes []*IterVar
	Body       ir.Expr // value in terms of Axes (+ ReduceAxes) variables
	Init       ir.Expr // reduction identity; nil for pure elementwise ops
	Combine    ir.BinOp
}

// Compute declares an elementwise tensor: out[axes...] = f(axes...).
func Compute(name string, shape []int, f func(axes []ir.Expr) ir.Expr) *Tensor {
	op := &ComputeOp{}
	exprs := make([]ir.Expr, len(shape))
	for i, d := range shape {
		iv := newIter(fmt.Sprintf("%s_ax%d", name, i), d)
		op.Axes = append(op.Axes, iv)
		exprs[i] = iv.Var
	}
	op.Body = f(exprs)
	t := &Tensor{Name: name, Shape: shape, Op: op}
	op.Out = t
	return t
}

// Sum declares a reduction tensor:
// out[axes...] = sum over raxes of f(axes..., raxes...).
func Sum(name string, shape []int, reduceExtents []int,
	f func(axes, raxes []ir.Expr) ir.Expr) *Tensor {
	op := &ComputeOp{Combine: ir.OpAdd, Init: ir.FImm(0)}
	exprs := make([]ir.Expr, len(shape))
	for i, d := range shape {
		iv := newIter(fmt.Sprintf("%s_ax%d", name, i), d)
		op.Axes = append(op.Axes, iv)
		exprs[i] = iv.Var
	}
	rexprs := make([]ir.Expr, len(reduceExtents))
	for i, d := range reduceExtents {
		iv := newIter(fmt.Sprintf("%s_r%d", name, i), d)
		op.ReduceAxes = append(op.ReduceAxes, iv)
		rexprs[i] = iv.Var
	}
	op.Body = f(exprs, rexprs)
	t := &Tensor{Name: name, Shape: shape, Op: op}
	op.Out = t
	return t
}

// If is a guarded value: cond ? then : else (predication, not branching).
func If(cond, then, els ir.Expr) ir.Expr { return &ir.Select{Cond: cond, A: then, B: els} }
