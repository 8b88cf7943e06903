package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConstantFolding(t *testing.T) {
	cases := []struct {
		got  Expr
		want int
	}{
		{Add(Imm(2), Imm(3)), 5},
		{Sub(Imm(2), Imm(3)), -1},
		{Mul(Imm(4), Imm(3)), 12},
		{Div(Imm(7), Imm(2)), 3},
		{Mod(Imm(7), Imm(2)), 1},
		{Min(Imm(7), Imm(2)), 2},
		{Max(Imm(7), Imm(2)), 7},
	}
	for _, c := range cases {
		imm, ok := c.got.(*IntImm)
		if !ok || imm.Value != c.want {
			t.Errorf("fold gave %v, want %d", c.got, c.want)
		}
	}
}

func TestIdentityFolding(t *testing.T) {
	x := NewVar("x")
	if Add(x, Imm(0)) != Expr(x) {
		t.Error("x+0 should fold to x")
	}
	if Add(Imm(0), x) != Expr(x) {
		t.Error("0+x should fold to x")
	}
	if Mul(x, Imm(1)) != Expr(x) {
		t.Error("x*1 should fold to x")
	}
	if v, ok := Mul(x, Imm(0)).(*IntImm); !ok || v.Value != 0 {
		t.Error("x*0 should fold to 0")
	}
	if Div(x, Imm(1)) != Expr(x) {
		t.Error("x/1 should fold to x")
	}
	if Sub(x, Imm(0)) != Expr(x) {
		t.Error("x-0 should fold to x")
	}
}

func TestDivModByZeroNotFolded(t *testing.T) {
	if _, ok := Div(Imm(1), Imm(0)).(*Binary); !ok {
		t.Error("division by zero must not fold")
	}
	if _, ok := Mod(Imm(1), Imm(0)).(*Binary); !ok {
		t.Error("mod by zero must not fold")
	}
}

func TestDTypes(t *testing.T) {
	x := NewVar("x")
	if x.DType() != Int32 {
		t.Error("NewVar should be int32")
	}
	if FImm(1).DType() != Float32 {
		t.Error("FImm should be float32")
	}
	if LT(x, Imm(1)).DType() != Bool {
		t.Error("comparison should be bool")
	}
	if Add(FImm(1), FImm(2)).DType() != Float32 {
		t.Error("float add should be float32")
	}
	sel := &Select{Cond: LT(x, Imm(1)), A: FImm(1), B: FImm(2)}
	if sel.DType() != Float32 {
		t.Error("select dtype follows branches")
	}
	if (&Cast{Value: x, To: Float32}).DType() != Float32 {
		t.Error("cast dtype")
	}
}

func TestExprStrings(t *testing.T) {
	x := NewVar("x")
	cases := []struct {
		e    Expr
		want string
	}{
		{Add(x, Imm(1)), "(x + 1)"},
		{Min(x, Imm(3)), "min(x, 3)"},
		{LoadF("A", x), "A[x]"},
		{&Call{Fn: "exp", Args: []Expr{x}, Type: Float32}, "exp(x)"},
		{&Ramp{Base: x, Stride: 1, Lanes: 4}, "ramp(x, 1, 4)"},
		{FImm(2.5), "2.5f"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func loopNest() Stmt {
	i, j := NewVar("i"), NewVar("j")
	return &For{Var: i, Min: Imm(0), Extent: Imm(4), Kind: ForThreadBlock,
		Body: &For{Var: j, Min: Imm(0), Extent: Imm(8), Kind: ForThread,
			Body: &Store{Buffer: "C", Index: Add(Mul(i, Imm(8)), j),
				Value: Add(LoadF("A", j), LoadF("B", i))}}}
}

func TestPrint(t *testing.T) {
	s := Print(loopNest())
	for _, want := range []string{"blockIdx i", "threadIdx j", "C[((i * 8) + j)] = (A[j] + B[i])"} {
		if !strings.Contains(s, want) {
			t.Errorf("printed IR missing %q:\n%s", want, s)
		}
	}
}

func TestSeqOfFlattens(t *testing.T) {
	a := &Barrier{Scope: ScopeShared}
	s := SeqOf(a, nil, SeqOf(a, a))
	seq, ok := s.(*Seq)
	if !ok || len(seq.Stmts) != 3 {
		t.Fatalf("SeqOf should flatten to 3 stmts, got %v", s)
	}
	if single := SeqOf(a); single != Stmt(a) {
		t.Error("single-element SeqOf should unwrap")
	}
}

func TestWalkStmtVisitsAll(t *testing.T) {
	var kinds []string
	WalkStmt(loopNest(), func(s Stmt) bool {
		switch s.(type) {
		case *For:
			kinds = append(kinds, "for")
		case *Store:
			kinds = append(kinds, "store")
		}
		return true
	})
	if len(kinds) != 3 {
		t.Fatalf("visited %v, want 2 fors + 1 store", kinds)
	}
}

func TestWalkStmtSkipChildren(t *testing.T) {
	count := 0
	WalkStmt(loopNest(), func(s Stmt) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("returning false should stop descent, visited %d", count)
	}
}

func TestWalkStmtExprs(t *testing.T) {
	loads := 0
	WalkStmtExprs(loopNest(), func(e Expr) {
		if _, ok := e.(*Load); ok {
			loads++
		}
	})
	if loads != 2 {
		t.Fatalf("found %d loads, want 2", loads)
	}
}

func TestSubstExpr(t *testing.T) {
	x, y := NewVar("x"), NewVar("y")
	e := Add(Mul(x, Imm(2)), y)
	got := SubstExpr(e, "x", Imm(3))
	if got.String() != "(6 + y)" {
		t.Fatalf("subst = %s", got)
	}
	// Untouched expression returns the same node.
	if SubstExpr(e, "z", Imm(1)) != e {
		t.Error("no-op substitution should return the original node")
	}
}

func TestSubstInsideSelectCallCast(t *testing.T) {
	x := NewVar("x")
	e := &Select{Cond: LT(x, Imm(1)), A: &Call{Fn: "exp", Args: []Expr{x}, Type: Float32}, B: &Cast{Value: x, To: Float32}}
	got := SubstExpr(e, "x", Imm(5))
	found := false
	WalkExpr(got, func(e Expr) {
		if v, ok := e.(*Var); ok && v.Name == "x" {
			found = true
		}
	})
	if found {
		t.Fatalf("x remains after substitution: %s", got)
	}
}

func TestForKindProperties(t *testing.T) {
	if !ForThread.IsGPUBound() || !ForThreadBlock.IsGPUBound() || !ForSubgroup.IsGPUBound() {
		t.Error("thread axes are GPU bound")
	}
	if ForSerial.IsGPUBound() || ForVectorized.IsGPUBound() {
		t.Error("serial/vectorized are not GPU bound")
	}
}

func TestCountLines(t *testing.T) {
	if n := CountLines(loopNest()); n != 5 {
		t.Fatalf("CountLines = %d, want 5 (2 headers + store + 2 braces)", n)
	}
}

func TestPropertyFoldMatchesArithmetic(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := int(a), int(b)
		add := Add(Imm(x), Imm(y)).(*IntImm).Value
		mul := Mul(Imm(x), Imm(y))
		mulv := 0
		if imm, ok := mul.(*IntImm); ok {
			mulv = imm.Value
		}
		return add == x+y && mulv == x*y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
