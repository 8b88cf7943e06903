package te

import (
	"fmt"

	"unigpu/internal/ir"
)

// Kernel is a lowered tensor computation: a loop-IR body plus its buffer
// parameters. The same Kernel is interpreted (internal/exec), priced
// (internal/sim), and printed as CUDA/OpenCL (internal/codegen).
type Kernel struct {
	Name   string
	Inputs []string // input buffer names in first-use order
	Output *Tensor
	Body   ir.Stmt
}

// Lower materialises the schedule into a loop nest.
//
// Shape of the result for a reduction op:
//
//	spatial loops {
//	  alloc acc[1] @local
//	  acc[0] = init
//	  reduce loops { if guards { acc[0] = combine(acc[0], body) } }
//	  if guards { out[flat] = acc[0] }
//	}
//
// Boundary guards appear only for splits whose factor does not divide the
// parent extent, matching how TVM emits likely-conditions.
func Lower(name string, s *Schedule) *Kernel {
	op := s.Op

	// Spatial leaves must all precede reduce leaves so the scalar
	// accumulator lowering is valid.
	firstReduce := len(s.leaves)
	for i, n := range s.leaves {
		if n.reduce {
			firstReduce = i
			break
		}
	}
	for _, n := range s.leaves[firstReduce:] {
		if !n.reduce {
			panic("te: spatial axis ordered inside a reduction axis; reorder reduce axes innermost")
		}
	}

	rootExpr, guards := s.resolveRoots()

	// Substitute derived-axis expressions into the body and output index.
	subst := func(e ir.Expr) ir.Expr {
		for node, ex := range rootExpr {
			e = ir.SubstExpr(e, node.iv.Var.Name, ex)
		}
		return e
	}
	body := subst(op.Body)

	outIdx := ir.Expr(ir.Imm(0))
	for i, iv := range op.Axes {
		outIdx = ir.Mul(outIdx, ir.Imm(op.Out.Shape[i]))
		ax := ir.Expr(iv.Var)
		if ex, ok := rootExpr[s.rootNode(iv)]; ok {
			ax = ex
		}
		outIdx = ir.Add(outIdx, ax)
	}
	outIdx = subst(outIdx)

	guard := func(inner ir.Stmt) ir.Stmt {
		for i := len(guards) - 1; i >= 0; i-- {
			inner = &ir.IfThenElse{Cond: guards[i], Then: inner}
		}
		return inner
	}

	var innerBody ir.Stmt
	if len(op.ReduceAxes) == 0 {
		innerBody = guard(&ir.Store{Buffer: op.Out.Name, Index: outIdx, Value: body})
	} else {
		accName := name + "_acc"
		upd := guard(&ir.Store{Buffer: accName, Index: ir.Imm(0),
			Value: &ir.Binary{Op: op.Combine, A: ir.LoadF(accName, ir.Imm(0)), B: body}})
		red := upd
		for i := len(s.leaves) - 1; i >= firstReduce; i-- {
			red = wrapLoop(s.leaves[i], red)
		}
		final := ir.Stmt(&ir.Store{Buffer: op.Out.Name, Index: outIdx, Value: ir.LoadF(accName, ir.Imm(0))})
		for i := len(s.spatialGuards) - 1; i >= 0; i-- {
			final = &ir.IfThenElse{Cond: s.spatialGuards[i], Then: final}
		}
		innerBody = &ir.Allocate{Buffer: accName, Type: ir.Float32, Size: ir.Imm(1), Scope: ir.ScopeLocal,
			Body: ir.SeqOf(
				&ir.Store{Buffer: accName, Index: ir.Imm(0), Value: op.Init},
				red,
				final,
			)}
	}

	stmt := innerBody
	for i := min(firstReduce, len(s.leaves)) - 1; i >= 0; i-- {
		stmt = wrapLoop(s.leaves[i], stmt)
	}

	k := &Kernel{Name: name, Output: op.Out, Body: stmt}
	k.Inputs = collectInputs(op, stmt)
	return k
}

func wrapLoop(n *axisNode, body ir.Stmt) ir.Stmt {
	return &ir.For{Var: n.iv.Var, Min: ir.Imm(0), Extent: ir.Imm(n.iv.Extent), Kind: n.kind, Body: body}
}

// rootNode finds the axis node holding the given root IterVar.
func (s *Schedule) rootNode(iv *IterVar) *axisNode {
	for n := range s.roots {
		if n.iv == iv {
			return n
		}
	}
	return nil
}

// resolveRoots expresses every non-leaf axis in terms of leaf loop
// variables and collects boundary-guard conditions for non-dividing splits.
// Guards over spatial-only expressions are additionally remembered in
// s.spatialGuards so reduction lowering can re-apply them to the final
// store.
func (s *Schedule) resolveRoots() (map[*axisNode]ir.Expr, []ir.Expr) {
	exprOf := make(map[*axisNode]ir.Expr)
	node := func(n *axisNode) ir.Expr {
		if e, ok := exprOf[n]; ok {
			return e
		}
		return n.iv.Var
	}
	var guards []ir.Expr
	s.spatialGuards = nil
	for i := len(s.relations) - 1; i >= 0; i-- {
		r := s.relations[i]
		e := ir.Add(ir.Mul(node(r.outer), ir.Imm(r.factor)), node(r.inner))
		exprOf[r.parent] = e
		if r.parent.iv.Extent%r.factor != 0 {
			g := ir.LT(e, ir.Imm(r.parent.iv.Extent))
			guards = append(guards, g)
			if !r.parent.reduce {
				s.spatialGuards = append(s.spatialGuards, g)
			}
		}
	}
	// Keep only root-axis entries; intermediate derived axes are already
	// folded into the root expressions via the reverse walk above... except
	// that the reverse walk resolves children before parents, so parents'
	// expressions may still reference intermediate axis variables. Fix by
	// substituting until closed.
	for n, e := range exprOf {
		exprOf[n] = closeOver(e, exprOf)
	}
	for i, g := range guards {
		guards[i] = closeOver(g, exprOf)
	}
	for i, g := range s.spatialGuards {
		s.spatialGuards[i] = closeOver(g, exprOf)
	}
	// Drop non-root entries.
	for n := range exprOf {
		if !s.roots[n] {
			delete(exprOf, n)
		}
	}
	return exprOf, guards
}

// closeOver substitutes derived-axis variables until the expression refers
// only to leaf loop variables.
func closeOver(e ir.Expr, exprOf map[*axisNode]ir.Expr) ir.Expr {
	for iter := 0; iter < 64; iter++ {
		changed := false
		for n, ex := range exprOf {
			next := ir.SubstExpr(e, n.iv.Var.Name, ex)
			if next != e {
				e = next
				changed = true
			}
		}
		if !changed {
			return e
		}
	}
	panic("te: cyclic axis relations")
}

// collectInputs finds input buffers loaded by the kernel body, in first-use
// order, excluding the op's own output and in-kernel temporaries.
func collectInputs(op *ComputeOp, body ir.Stmt) []string {
	allocs := map[string]bool{}
	ir.WalkStmt(body, func(s ir.Stmt) bool {
		if a, ok := s.(*ir.Allocate); ok {
			allocs[a.Buffer] = true
		}
		return true
	})
	seen := map[string]bool{op.Out.Name: true}
	var inputs []string
	ir.WalkStmtExprs(body, func(e ir.Expr) {
		if l, ok := e.(*ir.Load); ok && !seen[l.Buffer] && !allocs[l.Buffer] {
			seen[l.Buffer] = true
			inputs = append(inputs, l.Buffer)
		}
	})
	return inputs
}

func (s *Schedule) String() string {
	out := ""
	for _, l := range s.LeafInfos() {
		out += fmt.Sprintf("%s[%d]:%s ", l.Name, l.Extent, l.Kind)
	}
	return out
}
