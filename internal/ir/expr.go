// Package ir defines the unified low-level tensor intermediate
// representation at the heart of the stack (the "unified IR" of the paper).
// A scheduled tensor computation lowers to a loop nest of ir.Stmt whose
// leaves are ir.Expr trees. The same lowered IR is
//
//   - interpreted by internal/exec for functional validation,
//   - priced by internal/sim's device cost models, and
//   - printed as CUDA or OpenCL kernel source by internal/codegen.
//
// Loop axes carry a ForKind (serial, parallel, unrolled, vectorized, or
// bound to a GPU block/thread/subgroup axis), which is how schedule
// decisions reach all three consumers.
package ir

import (
	"fmt"
	"strings"
)

// DType is the element type of an expression. The stack computes in float32
// with int32 indices, mirroring edge-inference practice.
type DType int

const (
	Float32 DType = iota
	Int32
	Bool
)

func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Int32:
		return "int32"
	case Bool:
		return "bool"
	}
	return "unknown"
}

// Expr is a side-effect-free scalar expression.
type Expr interface {
	isExpr()
	DType() DType
	String() string
}

// Var is a named scalar variable: a loop index, a kernel parameter, or a
// let-bound temporary.
type Var struct {
	Name string
	Type DType
}

func (*Var) isExpr()          {}
func (v *Var) DType() DType   { return v.Type }
func (v *Var) String() string { return v.Name }

// NewVar returns an int32 variable, the common case for loop indices.
func NewVar(name string) *Var { return &Var{Name: name, Type: Int32} }

// IntImm is an integer constant.
type IntImm struct{ Value int }

func (*IntImm) isExpr()          {}
func (*IntImm) DType() DType     { return Int32 }
func (i *IntImm) String() string { return fmt.Sprint(i.Value) }

// Imm is shorthand for an integer immediate.
func Imm(v int) *IntImm { return &IntImm{Value: v} }

// FloatImm is a float32 constant.
type FloatImm struct{ Value float32 }

func (*FloatImm) isExpr()          {}
func (*FloatImm) DType() DType     { return Float32 }
func (f *FloatImm) String() string { return fmt.Sprintf("%gf", f.Value) }

// FImm is shorthand for a float immediate.
func FImm(v float32) *FloatImm { return &FloatImm{Value: v} }

// BinOp enumerates binary operators.
type BinOp int

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv // integer division truncates toward zero like Go
	OpMod
	OpMin
	OpMax
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpMin: "min", OpMax: "max",
	OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=", OpEQ: "==", OpNE: "!=",
	OpAnd: "&&", OpOr: "||",
}

func (op BinOp) String() string { return binOpNames[op] }

// IsCompare reports whether the operator yields a boolean.
func (op BinOp) IsCompare() bool { return op >= OpLT && op <= OpNE }

// Binary applies op to two operands.
type Binary struct {
	Op   BinOp
	A, B Expr
}

func (*Binary) isExpr() {}
func (b *Binary) DType() DType {
	if b.Op.IsCompare() || b.Op == OpAnd || b.Op == OpOr {
		return Bool
	}
	return b.A.DType()
}
func (b *Binary) String() string {
	if b.Op == OpMin || b.Op == OpMax {
		return fmt.Sprintf("%s(%s, %s)", b.Op, b.A, b.B)
	}
	return fmt.Sprintf("(%s %s %s)", b.A, b.Op, b.B)
}

// Convenience constructors.
func Add(a, b Expr) Expr { return fold(&Binary{OpAdd, a, b}) }
func Sub(a, b Expr) Expr { return fold(&Binary{OpSub, a, b}) }
func Mul(a, b Expr) Expr { return fold(&Binary{OpMul, a, b}) }
func Div(a, b Expr) Expr { return fold(&Binary{OpDiv, a, b}) }
func Mod(a, b Expr) Expr { return fold(&Binary{OpMod, a, b}) }
func Min(a, b Expr) Expr { return fold(&Binary{OpMin, a, b}) }
func Max(a, b Expr) Expr { return fold(&Binary{OpMax, a, b}) }
func LT(a, b Expr) Expr  { return &Binary{OpLT, a, b} }
func GE(a, b Expr) Expr  { return &Binary{OpGE, a, b} }
func And(a, b Expr) Expr { return &Binary{OpAnd, a, b} }

// fold performs trivial constant folding so lowered loop bounds stay
// readable and the interpreter does less work.
func fold(b *Binary) Expr {
	ai, aok := b.A.(*IntImm)
	bi, bok := b.B.(*IntImm)
	if aok && bok {
		switch b.Op {
		case OpAdd:
			return Imm(ai.Value + bi.Value)
		case OpSub:
			return Imm(ai.Value - bi.Value)
		case OpMul:
			return Imm(ai.Value * bi.Value)
		case OpDiv:
			if bi.Value != 0 {
				return Imm(ai.Value / bi.Value)
			}
		case OpMod:
			if bi.Value != 0 {
				return Imm(ai.Value % bi.Value)
			}
		case OpMin:
			return Imm(min(ai.Value, bi.Value))
		case OpMax:
			return Imm(max(ai.Value, bi.Value))
		}
	}
	switch b.Op {
	case OpAdd:
		if aok && ai.Value == 0 {
			return b.B
		}
		if bok && bi.Value == 0 {
			return b.A
		}
	case OpSub:
		if bok && bi.Value == 0 {
			return b.A
		}
	case OpMul:
		if aok && ai.Value == 1 {
			return b.B
		}
		if bok && bi.Value == 1 {
			return b.A
		}
		if (aok && ai.Value == 0) || (bok && bi.Value == 0) {
			return Imm(0)
		}
	case OpDiv:
		if bok && bi.Value == 1 {
			return b.A
		}
	}
	return b
}

// Select is a ternary: cond ? a : b. On GPUs this compiles to a predicated
// move and, unlike an if-statement, causes no thread divergence — the
// divergence-free NMS in internal/vision relies on that distinction.
type Select struct {
	Cond Expr
	A, B Expr
}

func (*Select) isExpr()        {}
func (s *Select) DType() DType { return s.A.DType() }
func (s *Select) String() string {
	return fmt.Sprintf("select(%s, %s, %s)", s.Cond, s.A, s.B)
}

// Load reads Buffer[Index]. Buffer names refer to allocations or kernel
// parameters; scope is resolved at execution time.
type Load struct {
	Buffer string
	Index  Expr
	Type   DType
}

func (*Load) isExpr()          {}
func (l *Load) DType() DType   { return l.Type }
func (l *Load) String() string { return fmt.Sprintf("%s[%s]", l.Buffer, l.Index) }

// LoadF is shorthand for a float32 load.
func LoadF(buf string, idx Expr) *Load { return &Load{Buffer: buf, Index: idx, Type: Float32} }

// Call invokes an intrinsic (exp, sqrt, sigmoid, ...), including the Intel
// subgroup primitives intel_sub_group_block_read / _shuffle that the Intel
// conv template emits.
type Call struct {
	Fn   string
	Args []Expr
	Type DType
}

func (*Call) isExpr()        {}
func (c *Call) DType() DType { return c.Type }
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Fn, strings.Join(parts, ", "))
}

// Cast converts between dtypes.
type Cast struct {
	Value Expr
	To    DType
}

func (*Cast) isExpr()          {}
func (c *Cast) DType() DType   { return c.To }
func (c *Cast) String() string { return fmt.Sprintf("(%s)(%s)", c.To, c.Value) }

// Ramp is a vector of Lanes consecutive indices starting at Base with the
// given Stride; it appears as the index of vectorized loads/stores.
type Ramp struct {
	Base   Expr
	Stride int
	Lanes  int
}

func (*Ramp) isExpr()        {}
func (r *Ramp) DType() DType { return Int32 }
func (r *Ramp) String() string {
	return fmt.Sprintf("ramp(%s, %d, %d)", r.Base, r.Stride, r.Lanes)
}
