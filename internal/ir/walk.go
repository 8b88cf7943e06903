package ir

// WalkStmt calls fn for every statement in the tree, parents before
// children. Returning false from fn skips the node's children.
func WalkStmt(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch v := s.(type) {
	case *For:
		WalkStmt(v.Body, fn)
	case *LetStmt:
		WalkStmt(v.Body, fn)
	case *IfThenElse:
		WalkStmt(v.Then, fn)
		WalkStmt(v.Else, fn)
	case *Allocate:
		WalkStmt(v.Body, fn)
	case *Seq:
		for _, st := range v.Stmts {
			WalkStmt(st, fn)
		}
	}
}

// WalkExpr calls fn for every expression node, parents before children.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch v := e.(type) {
	case *Binary:
		WalkExpr(v.A, fn)
		WalkExpr(v.B, fn)
	case *Select:
		WalkExpr(v.Cond, fn)
		WalkExpr(v.A, fn)
		WalkExpr(v.B, fn)
	case *Load:
		WalkExpr(v.Index, fn)
	case *Call:
		for _, a := range v.Args {
			WalkExpr(a, fn)
		}
	case *Cast:
		WalkExpr(v.Value, fn)
	case *Ramp:
		WalkExpr(v.Base, fn)
	}
}

// WalkStmtExprs calls fn on every expression occurring anywhere in the
// statement tree.
func WalkStmtExprs(s Stmt, fn func(Expr)) {
	WalkStmt(s, func(st Stmt) bool {
		switch v := st.(type) {
		case *For:
			WalkExpr(v.Min, fn)
			WalkExpr(v.Extent, fn)
		case *Store:
			WalkExpr(v.Index, fn)
			WalkExpr(v.Value, fn)
		case *LetStmt:
			WalkExpr(v.Value, fn)
		case *IfThenElse:
			WalkExpr(v.Cond, fn)
		case *Allocate:
			WalkExpr(v.Size, fn)
		case *Evaluate:
			WalkExpr(v.Value, fn)
		}
		return true
	})
}

// SubstExpr returns e with every occurrence of the variable name replaced
// by repl. Expression trees are immutable, so shared subtrees are rebuilt
// only along modified paths.
func SubstExpr(e Expr, name string, repl Expr) Expr {
	switch v := e.(type) {
	case *Var:
		if v.Name == name {
			return repl
		}
		return v
	case *Binary:
		a, b := SubstExpr(v.A, name, repl), SubstExpr(v.B, name, repl)
		if a == v.A && b == v.B {
			return v
		}
		return fold(&Binary{v.Op, a, b})
	case *Select:
		c := SubstExpr(v.Cond, name, repl)
		a, b := SubstExpr(v.A, name, repl), SubstExpr(v.B, name, repl)
		if c == v.Cond && a == v.A && b == v.B {
			return v
		}
		return &Select{c, a, b}
	case *Load:
		idx := SubstExpr(v.Index, name, repl)
		if idx == v.Index {
			return v
		}
		return &Load{v.Buffer, idx, v.Type}
	case *Call:
		changed := false
		args := make([]Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = SubstExpr(a, name, repl)
			changed = changed || args[i] != a
		}
		if !changed {
			return v
		}
		return &Call{v.Fn, args, v.Type}
	case *Cast:
		val := SubstExpr(v.Value, name, repl)
		if val == v.Value {
			return v
		}
		return &Cast{val, v.To}
	case *Ramp:
		base := SubstExpr(v.Base, name, repl)
		if base == v.Base {
			return v
		}
		return &Ramp{base, v.Stride, v.Lanes}
	default:
		return e
	}
}
