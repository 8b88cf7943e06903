// Package codegen renders one lowered kernel as CUDA and as OpenCL source
// text — the paper's "universal GPU IR ... works for both CUDA and OpenCL"
// (Figure 1). GPU-bound loop axes become grid/block bindings, unrolled loops
// get unroll pragmas, vectorized loops get vectorization hints, shared
// allocations become __shared__ / __local arrays, and Intel subgroup axes
// use the Intel OpenCL subgroup extension (§3.2.1).
//
// The emitted source is not compiled in this reproduction (there is no GPU
// driver to hand it to); it is validated structurally by tests and used by
// the §3.1.1 engineering-effort experiment, while functional validation of
// the same IR goes through internal/exec.
package codegen

import (
	"fmt"
	"strings"

	"unigpu/internal/ir"
	"unigpu/internal/obs"
	"unigpu/internal/te"
)

// Target selects the output dialect.
type Target int

const (
	// CUDA targets Nvidia integrated GPUs (Jetson family).
	CUDA Target = iota
	// OpenCL targets Intel Graphics and ARM Mali.
	OpenCL
)

func (t Target) String() string {
	if t == CUDA {
		return "cuda"
	}
	return "opencl"
}

// LaunchConfig is the grid/block shape implied by the kernel's bound axes.
type LaunchConfig struct {
	Grid    [3]int // blockIdx x,y,z extents
	Block   [3]int // threadIdx x,y,z extents (subgroup lanes land here too)
	Threads int    // total threads per block
	Blocks  int    // total blocks
}

// Launch extracts the launch configuration from a kernel's bound axes.
func Launch(k *te.Kernel) LaunchConfig {
	lc := LaunchConfig{Grid: [3]int{1, 1, 1}, Block: [3]int{1, 1, 1}}
	gi, ti := 0, 0
	ir.WalkStmt(k.Body, func(s ir.Stmt) bool {
		f, ok := s.(*ir.For)
		if !ok {
			return true
		}
		ext := 1
		if imm, isImm := f.Extent.(*ir.IntImm); isImm {
			ext = imm.Value
		}
		switch f.Kind {
		case ir.ForThreadBlock:
			if gi < 3 {
				lc.Grid[gi] = ext
				gi++
			}
		case ir.ForThread, ir.ForSubgroup:
			if ti < 3 {
				lc.Block[ti] = ext
				ti++
			}
		}
		return true
	})
	lc.Blocks = lc.Grid[0] * lc.Grid[1] * lc.Grid[2]
	lc.Threads = lc.Block[0] * lc.Block[1] * lc.Block[2]
	return lc
}

// Emit renders the kernel in the given dialect.
func Emit(k *te.Kernel, target Target) string {
	sp := obs.Start("codegen.emit",
		obs.KV("kernel", k.Name), obs.KV("target", target.String()))
	g := &generator{target: target, dims: map[string]string{}}
	src := g.kernel(k)
	sp.SetAttrs(obs.KVInt("lines", LineCount(src)))
	sp.End()
	obs.Count("codegen.kernels", 1)
	return src
}

// LineCount returns the number of non-blank source lines Emit produces;
// used by the engineering-effort comparison (§3.1.1).
func LineCount(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

type generator struct {
	target Target
	b      strings.Builder
	indent int
	dims   map[string]string // loop var -> hardware index expression
}

// cname sanitizes an IR variable name into a C identifier (split axes are
// named with dots, e.g. "ax1.o").
func cname(name string) string {
	return strings.NewReplacer(".", "_", "-", "_").Replace(name)
}

func (g *generator) kernel(k *te.Kernel) string {
	lc := Launch(k)
	fmt.Fprintf(&g.b, "// kernel %s: grid=(%d,%d,%d) block=(%d,%d,%d)\n",
		k.Name, lc.Grid[0], lc.Grid[1], lc.Grid[2], lc.Block[0], lc.Block[1], lc.Block[2])

	params := make([]string, 0, len(k.Inputs)+1)
	for _, in := range k.Inputs {
		params = append(params, g.param(in, true))
	}
	params = append(params, g.param(k.Output.Name, false))

	switch g.target {
	case CUDA:
		fmt.Fprintf(&g.b, "extern \"C\" __global__ void %s(%s) {\n", k.Name, strings.Join(params, ", "))
	case OpenCL:
		fmt.Fprintf(&g.b, "__kernel void %s(%s) {\n", k.Name, strings.Join(params, ", "))
	}
	g.indent++
	g.bindHardwareAxes(k.Body)
	g.stmt(k.Body)
	g.indent--
	g.b.WriteString("}\n")
	return g.b.String()
}

func (g *generator) param(name string, in bool) string {
	constq := ""
	if in {
		constq = "const "
	}
	if g.target == OpenCL {
		return fmt.Sprintf("__global %sfloat* restrict %s", constq, name)
	}
	return fmt.Sprintf("%sfloat* __restrict__ %s", constq, name)
}

// bindHardwareAxes assigns grid/block dimension names to bound loop axes in
// order of appearance.
func (g *generator) bindHardwareAxes(body ir.Stmt) {
	dims := []string{"x", "y", "z"}
	gi, ti := 0, 0
	ir.WalkStmt(body, func(s ir.Stmt) bool {
		f, ok := s.(*ir.For)
		if !ok {
			return true
		}
		switch f.Kind {
		case ir.ForThreadBlock:
			if gi < 3 {
				if g.target == CUDA {
					g.dims[f.Var.Name] = "blockIdx." + dims[gi]
				} else {
					g.dims[f.Var.Name] = fmt.Sprintf("get_group_id(%d)", gi)
				}
				gi++
			}
		case ir.ForThread:
			if ti < 3 {
				if g.target == CUDA {
					g.dims[f.Var.Name] = "threadIdx." + dims[ti]
				} else {
					g.dims[f.Var.Name] = fmt.Sprintf("get_local_id(%d)", ti)
				}
				ti++
			}
		case ir.ForSubgroup:
			if g.target == CUDA {
				// CUDA has no subgroup concept distinct from the warp; lanes
				// map onto the warp-synchronous thread index.
				if ti < 3 {
					g.dims[f.Var.Name] = "threadIdx." + dims[ti]
					ti++
				}
			} else {
				g.dims[f.Var.Name] = "get_sub_group_local_id()"
			}
		}
		return true
	})
}

func (g *generator) line(format string, args ...any) {
	for i := 0; i < g.indent; i++ {
		g.b.WriteString("  ")
	}
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *generator) stmt(s ir.Stmt) {
	switch v := s.(type) {
	case *ir.For:
		g.forStmt(v)
	case *ir.Store:
		g.line("%s[%s] = %s;", v.Buffer, g.expr(v.Index), g.expr(v.Value))
	case *ir.LetStmt:
		g.line("%s %s = %s;", g.ctype(v.Var.Type), cname(v.Var.Name), g.expr(v.Value))
		g.stmt(v.Body)
	case *ir.IfThenElse:
		g.line("if (%s) {", g.expr(v.Cond))
		g.indent++
		g.stmt(v.Then)
		g.indent--
		if v.Else != nil {
			g.line("} else {")
			g.indent++
			g.stmt(v.Else)
			g.indent--
		}
		g.line("}")
	case *ir.Allocate:
		qual := ""
		switch v.Scope {
		case ir.ScopeShared:
			if g.target == CUDA {
				qual = "__shared__ "
			} else {
				qual = "__local "
			}
		case ir.ScopeLocal:
			// Registers / private memory: plain automatic array.
		case ir.ScopeGlobal:
			qual = "/*global*/ "
		}
		g.line("%s%s %s[%s];", qual, g.ctype(v.Type), v.Buffer, g.expr(v.Size))
		g.stmt(v.Body)
	case *ir.Seq:
		for _, st := range v.Stmts {
			g.stmt(st)
		}
	case *ir.Barrier:
		if g.target == CUDA {
			g.line("__syncthreads();")
		} else if v.Scope == ir.ScopeShared {
			g.line("barrier(CLK_LOCAL_MEM_FENCE);")
		} else {
			g.line("barrier(CLK_GLOBAL_MEM_FENCE);")
		}
	case *ir.Evaluate:
		g.line("%s;", g.expr(v.Value))
	default:
		panic(fmt.Sprintf("codegen: unknown statement %T", s))
	}
}

func (g *generator) forStmt(f *ir.For) {
	name := cname(f.Var.Name)
	if hw, ok := g.dims[f.Var.Name]; ok {
		g.line("const int %s = %s;", name, hw)
		g.stmt(f.Body)
		return
	}
	if ext, ok := f.Extent.(*ir.IntImm); ok && ext.Value == 1 {
		g.line("const int %s = %s;", name, g.expr(f.Min))
		g.stmt(f.Body)
		return
	}
	switch f.Kind {
	case ir.ForUnrolled:
		g.line("#pragma unroll")
	case ir.ForVectorized:
		if g.target == OpenCL {
			g.line("// vectorized (vloadN/vstoreN)")
		} else {
			g.line("#pragma unroll // vectorized")
		}
	}
	g.line("for (int %s = %s; %s < %s + %s; ++%s) {",
		name, g.expr(f.Min), name, g.expr(f.Min), g.expr(f.Extent), name)
	g.indent++
	g.stmt(f.Body)
	g.indent--
	g.line("}")
}

func (g *generator) ctype(t ir.DType) string {
	switch t {
	case ir.Float32:
		return "float"
	case ir.Int32:
		return "int"
	case ir.Bool:
		if g.target == CUDA {
			return "bool"
		}
		return "int"
	}
	return "void"
}

func (g *generator) expr(e ir.Expr) string {
	switch v := e.(type) {
	case *ir.Var:
		return cname(v.Name)
	case *ir.IntImm:
		return fmt.Sprint(v.Value)
	case *ir.FloatImm:
		return fmt.Sprintf("%gf", v.Value)
	case *ir.Binary:
		return g.binary(v)
	case *ir.Select:
		return fmt.Sprintf("(%s ? %s : %s)", g.expr(v.Cond), g.expr(v.A), g.expr(v.B))
	case *ir.Load:
		return fmt.Sprintf("%s[%s]", v.Buffer, g.expr(v.Index))
	case *ir.Call:
		return g.call(v)
	case *ir.Cast:
		return fmt.Sprintf("((%s)%s)", g.ctype(v.To), g.expr(v.Value))
	case *ir.Ramp:
		return fmt.Sprintf("/*ramp*/(%s)", g.expr(v.Base))
	}
	panic(fmt.Sprintf("codegen: unknown expression %T", e))
}

func (g *generator) binary(b *ir.Binary) string {
	a, c := g.expr(b.A), g.expr(b.B)
	isFloat := b.A.DType() == ir.Float32
	switch b.Op {
	case ir.OpMin:
		if g.target == CUDA && isFloat {
			return fmt.Sprintf("fminf(%s, %s)", a, c)
		}
		return fmt.Sprintf("min(%s, %s)", a, c)
	case ir.OpMax:
		if g.target == CUDA && isFloat {
			return fmt.Sprintf("fmaxf(%s, %s)", a, c)
		}
		return fmt.Sprintf("max(%s, %s)", a, c)
	default:
		return fmt.Sprintf("(%s %s %s)", a, b.Op, c)
	}
}

func (g *generator) call(c *ir.Call) string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = g.expr(a)
	}
	fn := c.Fn
	if g.target == CUDA {
		switch fn {
		case "exp", "log", "sqrt", "pow", "floor":
			fn += "f"
		case "abs":
			fn = "fabsf"
		case "sigmoid":
			return fmt.Sprintf("(1.0f / (1.0f + expf(-%s)))", args[0])
		case "intel_sub_group_block_read", "intel_sub_group_shuffle":
			// Warp-synchronous equivalent on Nvidia.
			fn = "__shfl_sync"
			args = append([]string{"0xffffffff"}, args...)
		}
	} else {
		switch fn {
		case "abs":
			fn = "fabs"
		case "sigmoid":
			return fmt.Sprintf("(1.0f / (1.0f + exp(-%s)))", args[0])
		}
	}
	return fmt.Sprintf("%s(%s)", fn, strings.Join(args, ", "))
}
