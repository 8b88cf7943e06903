package ir

import (
	"fmt"
	"strings"
)

// ForKind classifies how a loop axis executes. Schedule primitives rewrite
// serial loops into the other kinds; the interpreter, the cost model, and
// codegen all dispatch on it.
type ForKind int

const (
	// ForSerial executes iterations in order on one lane.
	ForSerial ForKind = iota
	// ForUnrolled is fully unrolled by codegen; the cost model credits
	// reduced control overhead and better ILP (§3.2.2).
	ForUnrolled
	// ForVectorized maps iterations onto SIMD lanes.
	ForVectorized
	// ForThreadBlock binds the axis to blockIdx / OpenCL work-group id.
	ForThreadBlock
	// ForThread binds the axis to threadIdx / OpenCL local id.
	ForThread
	// ForSubgroup binds the axis to an Intel subgroup lane sharing the
	// hardware thread's register file (§3.2.1).
	ForSubgroup
)

func (k ForKind) String() string {
	switch k {
	case ForSerial:
		return "for"
	case ForUnrolled:
		return "unrolled"
	case ForVectorized:
		return "vectorized"
	case ForThreadBlock:
		return "blockIdx"
	case ForThread:
		return "threadIdx"
	case ForSubgroup:
		return "subgroup"
	}
	return "?"
}

// IsGPUBound reports whether the axis maps to a hardware scheduling
// dimension rather than an in-kernel loop.
func (k ForKind) IsGPUBound() bool {
	return k == ForThreadBlock || k == ForThread || k == ForSubgroup
}

// MemScope is where an allocation lives in the device memory hierarchy.
type MemScope int

const (
	// ScopeGlobal is off-chip DRAM shared between CPU and integrated GPU.
	ScopeGlobal MemScope = iota
	// ScopeShared is per-block shared/local memory (absent on Mali).
	ScopeShared
	// ScopeLocal is per-thread registers (GRFs on Intel).
	ScopeLocal
)

func (s MemScope) String() string {
	switch s {
	case ScopeGlobal:
		return "global"
	case ScopeShared:
		return "shared"
	case ScopeLocal:
		return "local"
	}
	return "?"
}

// Stmt is an imperative statement in the lowered loop program.
type Stmt interface {
	isStmt()
	pretty(w *strings.Builder, indent int)
}

// For is a loop over [Min, Min+Extent) with the given kind.
type For struct {
	Var    *Var
	Min    Expr
	Extent Expr
	Kind   ForKind
	Body   Stmt
}

func (*For) isStmt() {}

// Store writes Value to Buffer[Index].
type Store struct {
	Buffer string
	Index  Expr
	Value  Expr
}

func (*Store) isStmt() {}

// LetStmt binds Var to Value within Body.
type LetStmt struct {
	Var   *Var
	Value Expr
	Body  Stmt
}

func (*LetStmt) isStmt() {}

// IfThenElse executes Then when Cond holds, otherwise Else (may be nil).
// Inside GPU thread loops this is the construct that causes divergence,
// which the cost model penalises.
type IfThenElse struct {
	Cond Expr
	Then Stmt
	Else Stmt
}

func (*IfThenElse) isStmt() {}

// Allocate introduces a buffer of Size elements in the given scope for the
// duration of Body.
type Allocate struct {
	Buffer string
	Type   DType
	Size   Expr
	Scope  MemScope
	Body   Stmt
}

func (*Allocate) isStmt() {}

// Seq executes statements in order.
type Seq struct{ Stmts []Stmt }

func (*Seq) isStmt() {}

// SeqOf builds a Seq, flattening nested Seqs and dropping nils.
func SeqOf(stmts ...Stmt) Stmt {
	var flat []Stmt
	for _, s := range stmts {
		switch v := s.(type) {
		case nil:
		case *Seq:
			flat = append(flat, v.Stmts...)
		default:
			flat = append(flat, s)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &Seq{Stmts: flat}
}

// Barrier synchronises all threads of a block (CUDA __syncthreads /
// OpenCL barrier). Scope records which memory it orders.
type Barrier struct{ Scope MemScope }

func (*Barrier) isStmt() {}

// Evaluate executes an expression for its side effect (intrinsic calls).
type Evaluate struct{ Value Expr }

func (*Evaluate) isStmt() {}

// Pretty-printing ------------------------------------------------------------

func ind(w *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		w.WriteString("  ")
	}
}

func (f *For) pretty(w *strings.Builder, n int) {
	ind(w, n)
	fmt.Fprintf(w, "%s %s in [%s, %s+%s) {\n", f.Kind, f.Var, f.Min, f.Min, f.Extent)
	f.Body.pretty(w, n+1)
	ind(w, n)
	w.WriteString("}\n")
}

func (s *Store) pretty(w *strings.Builder, n int) {
	ind(w, n)
	fmt.Fprintf(w, "%s[%s] = %s\n", s.Buffer, s.Index, s.Value)
}

func (l *LetStmt) pretty(w *strings.Builder, n int) {
	ind(w, n)
	fmt.Fprintf(w, "let %s = %s\n", l.Var, l.Value)
	l.Body.pretty(w, n)
}

func (i *IfThenElse) pretty(w *strings.Builder, n int) {
	ind(w, n)
	fmt.Fprintf(w, "if %s {\n", i.Cond)
	i.Then.pretty(w, n+1)
	ind(w, n)
	if i.Else != nil {
		w.WriteString("} else {\n")
		i.Else.pretty(w, n+1)
		ind(w, n)
	}
	w.WriteString("}\n")
}

func (a *Allocate) pretty(w *strings.Builder, n int) {
	ind(w, n)
	fmt.Fprintf(w, "alloc %s %s[%s] @%s\n", a.Type, a.Buffer, a.Size, a.Scope)
	a.Body.pretty(w, n)
}

func (s *Seq) pretty(w *strings.Builder, n int) {
	for _, st := range s.Stmts {
		st.pretty(w, n)
	}
}

func (b *Barrier) pretty(w *strings.Builder, n int) {
	ind(w, n)
	fmt.Fprintf(w, "barrier(%s)\n", b.Scope)
}

func (e *Evaluate) pretty(w *strings.Builder, n int) {
	ind(w, n)
	fmt.Fprintf(w, "%s\n", e.Value)
}

// Print renders the statement tree as indented pseudo-code.
func Print(s Stmt) string {
	var w strings.Builder
	s.pretty(&w, 0)
	return w.String()
}

// CountLines returns the number of IR lines in the printed form; used by
// the §3.1.1 conciseness experiment (≈100 lines of IR vs 325 lines CUDA).
func CountLines(s Stmt) int {
	return strings.Count(Print(s), "\n")
}
