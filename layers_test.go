package unigpu

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// moduleLayers declares every package of the module, bottom layer first
// (paths relative to the module root). A package imports only packages of
// lower layers. The product is the library and what it links, layers
// 0 to 8; the harness regenerates the paper's tables, benchmarks and
// demonstrates the product and sits above it, so nothing in the product
// imports it. The last layer is test-only: test files alone import it.
var moduleLayers = [][]string{
	{"internal/cpu", "internal/ir", "internal/obs", "internal/par"},
	{"internal/te", "internal/tensor"},
	{"internal/ops", "internal/sim"},
	{"internal/templates", "internal/vision"},
	{"internal/autotvm"},
	{"internal/graph", "internal/graphtuner"},
	{"internal/models", "internal/runtime"},
	{"internal/price"},
	{"."},
	// The harness.
	{"bench/e2e/harness", "internal/baselines", "internal/codegen"},
	{"internal/bench"},
	{"bench/e2e", "cmd/bench2json", "cmd/unigpu-bench", "cmd/unigpu-calibrate",
		"cmd/unigpu-run", "cmd/unigpu-tune", "examples/fallback",
		"examples/objectdetection", "examples/quickstart", "examples/tuning"},
	// Test-only: the IR interpreter that checks lowered schedules.
	{"internal/exec"},
}

// firstHarnessLayer is the index of the harness's bottom layer.
const firstHarnessLayer = 9

// testOnlyLayer is the index of the layer only test files may import.
const testOnlyLayer = 12

// forbiddenImports are edges the layer order alone would allow. The graph
// executor runs nodes through graph.PreparedOp and must not learn what is
// inside an operator.
var forbiddenImports = map[string]string{
	"internal/runtime": "internal/ops",
}

// archs are the builds the module is held to: amd64 with its assembly and
// arm64 with the portable loops that stand in for it.
var archs = []string{"amd64", "arm64"}

// buildPackages maps each package directory under the module root
// (module-relative, "." for the root) to the package the build for arch
// sees; its GoFiles and Imports leave the test files out.
func buildPackages(t *testing.T, arch string) map[string]*build.Package {
	t.Helper()
	ctxt := build.Default
	ctxt.GOARCH = arch
	pkgs := map[string]*build.Package{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		p, err := ctxt.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		pkgs[filepath.ToSlash(dir)] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// moduleRel returns an import path relative to the module root ("." for
// the root) and whether it is inside the module.
func moduleRel(path string) (string, bool) {
	if path == "unigpu" {
		return ".", true
	}
	return strings.CutPrefix(path, "unigpu/")
}

// modulePackages maps each package directory under the module root to its
// module imports (module-relative, "." for the root), as the amd64 and
// arm64 builds see them; test files are not included.
func modulePackages(t *testing.T) map[string][]string {
	t.Helper()
	pkgs := map[string][]string{}
	for _, arch := range archs {
		for dir, p := range buildPackages(t, arch) {
			imports := pkgs[dir]
			for _, imp := range p.Imports {
				if rel, ok := moduleRel(imp); ok && !slices.Contains(imports, rel) {
					imports = append(imports, rel)
				}
			}
			pkgs[dir] = imports
		}
	}
	return pkgs
}

// layerProblems returns every way the packages found, each with its
// module imports, break moduleLayers: the table names each package once,
// imports point to lower layers, no product package imports the harness,
// no non-test file imports a test-only package, the host worker pool
// (internal/par) imports only the standard library, and no forbidden edge
// exists.
func layerProblems(found map[string][]string) []string {
	var out []string
	layerOf := map[string]int{}
	for i, pkgs := range moduleLayers {
		for _, p := range pkgs {
			if _, dup := layerOf[p]; dup {
				out = append(out, fmt.Sprintf("%s is declared twice", p))
			}
			layerOf[p] = i
		}
	}
	for p := range layerOf {
		if _, ok := found[p]; !ok {
			out = append(out, fmt.Sprintf("%s is declared but holds no package", p))
		}
	}
	for p, imports := range found {
		layer, ok := layerOf[p]
		if !ok {
			out = append(out, fmt.Sprintf("%s is missing from moduleLayers", p))
			continue
		}
		if p == "internal/par" && len(imports) > 0 {
			out = append(out, fmt.Sprintf("internal/par must import the standard library only, imports %v", imports))
		}
		for _, imp := range imports {
			to, ok := layerOf[imp]
			switch {
			case !ok:
				// Reported above as missing.
			case to == testOnlyLayer:
				out = append(out, fmt.Sprintf("%s imports test-only package %s", p, imp))
			case layer < firstHarnessLayer && to >= firstHarnessLayer:
				out = append(out, fmt.Sprintf("product package %s imports harness package %s", p, imp))
			case to >= layer:
				out = append(out, fmt.Sprintf("%s (layer %d) imports %s (layer %d): imports must point to a lower layer", p, layer, imp, to))
			}
			if forbiddenImports[p] == imp {
				out = append(out, fmt.Sprintf("%s must not import %s", p, imp))
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestModuleLayers holds every package of the module to moduleLayers, and
// checks that each planted breach of the table is reported.
func TestModuleLayers(t *testing.T) {
	found := modulePackages(t)
	for _, p := range layerProblems(found) {
		t.Error(p)
	}
	imports := func(from, to string) func(map[string][]string) {
		return func(pkgs map[string][]string) { pkgs[from] = append(pkgs[from], to) }
	}
	for _, c := range []struct {
		name  string
		plant func(map[string][]string)
		want  string
	}{
		{"harness imports the test-only layer", imports("internal/bench", "internal/exec"),
			"internal/bench imports test-only package internal/exec"},
		{"product imports the test-only layer", imports("internal/runtime", "internal/exec"),
			"internal/runtime imports test-only package internal/exec"},
		{"product imports the harness", imports("internal/graph", "internal/baselines"),
			"product package internal/graph imports harness package internal/baselines"},
		{"import points up", imports("internal/tensor", "internal/ops"),
			"internal/tensor (layer 1) imports internal/ops (layer 2)"},
		{"par imports a module package", imports("internal/par", "internal/cpu"),
			"internal/par must import the standard library only"},
		{"forbidden edge", imports("internal/runtime", "internal/ops"),
			"internal/runtime must not import internal/ops"},
		{"package missing from the table", func(pkgs map[string][]string) { pkgs["internal/planted"] = nil },
			"internal/planted is missing from moduleLayers"},
		{"declared package is gone", func(pkgs map[string][]string) { delete(pkgs, "internal/cpu") },
			"internal/cpu is declared but holds no package"},
	} {
		t.Run(c.name, func(t *testing.T) {
			planted := map[string][]string{}
			for p, imps := range found {
				planted[p] = slices.Clone(imps)
			}
			c.plant(planted)
			got := layerProblems(planted)
			if !slices.ContainsFunc(got, func(p string) bool { return strings.HasPrefix(p, c.want) }) {
				t.Errorf("no problem begins %q; got %q", c.want, got)
			}
		})
	}
}

// reachAllowlist names the declarations that no binary reaches, and the
// struct fields that no binary reads or none sets, that stay, each with the
// reason and the tests that use it. An entry that becomes reached (a field:
// read and set), or whose declaration is gone, fails
// TestEveryDeclarationIsReached.
var reachAllowlist = map[string]string{
	"internal/codegen.LaunchConfig.Blocks":     "total blocks of a launch: TestLaunchConfig (codegen) checks it against the grid",
	"internal/codegen.LaunchConfig.Threads":    "total threads per block: TestLaunchConfig (codegen) checks it against the block",
	"internal/graph.CastOp.To":                 "the cast's target dtype (the kernel reads the output's): TestQuantizeINT8CastDedup and TestQuantizeCalibrationDeterministic (graph) find int8 casts by it",
	"internal/ir.Barrier.Scope":                "the memory a barrier orders, for item 15's IR kernels: TestSeqOfFlattens (ir), TestSharedAllocationAndBarrier (codegen), the lockstep and error tests of exec build it",
	"internal/ir.Evaluate.Value":               "an intrinsic call run for its effect, for item 15's IR kernels: TestErrorsAreReportedNotPanics (exec) builds one",
	"internal/ops.ConvWorkload.Bytes":          "compulsory fp32 traffic: BenchmarkConv2D_ResNetBlock (unigpu) reports it as bytes per op",
	"internal/runtime.NodeProfile.Device":      "Execute's per-node profile: TestProfileDeviceAttribution (runtime) checks each node's device",
	"internal/runtime.NodeProfile.Kind":        "Execute's per-node profile: TestExecuteConstantsAndProfile (runtime) checks the kinds in schedule order",
	"internal/runtime.NodeProfile.Name":        "Execute's per-node profile: TestProfileDeviceAttribution (runtime) finds nodes by name",
	"internal/runtime.NodeProfile.OutBytes":    "Execute's per-node profile: TestExecuteConstantsAndProfile (runtime) checks the output bytes",
	"internal/runtime.Result.Outputs":          "Execute's outputs: TestExecute* (runtime), runGraph (graph) and the models' execution tests",
	"internal/runtime.Result.PeakLive":         "Execute's liveness peak: TestPeakLive* (runtime) and TestRuntimeMemoryPlanning (graph)",
	"internal/runtime.Result.Profile":          "Execute's per-node profile: TestExecuteConstantsAndProfile, TestProfileDeviceAttribution (runtime) and TestRuntimeMemoryPlanning (graph)",
	"internal/sim.Cost.Efficiency":             "achieved fraction of peak compute: TestDivergenceMeasuredAndWorseOnMali and TestSubgroupBoostOnlyOnIntel (sim)",
	"internal/sim.Cost.FLOPs":                  "the kernel's counted work: TestCostPositiveAndFinite (sim)",
	"internal/sim.Cost.TrafficBytes":           "the kernel's global traffic: TestTilingReducesTraffic (sim)",
	"internal/te.LeafInfo.Reduce":              "whether a loop reduces: TestLeafInfos (te)",
	"internal/ir.Div":                          "IR builder for integer division: TestConstantFolding, TestIdentityFolding and TestDivModByZeroNotFolded (ir) pin its folding; TestIntegerDivisionTruncates (exec) runs it",
	"internal/ir.Mod":                          "IR builder for modulo: TestConstantFolding and TestDivModByZeroNotFolded (ir), TestFloatModUsesMathMod and TestRunCooperativeMultipleBarriers (exec), TestIntervalArithmetic (sim)",
	"internal/obs.Disable":                     "process-global tracer seam: TestPipelineTraceExport (unigpu) and BenchmarkExecuteObsEnabled (runtime) switch tracing back off",
	"internal/obs.Reset":                       "process-global telemetry seam: TestPipelineTraceExport, TestTraceDisabledByDefault (unigpu) and BenchmarkExecuteObsEnabled (runtime) start from empty spans and metrics",
	"internal/ops.AvgPool":                     "the average branch of Pool2DInto, held to its reference by TestPool2DMatchesReference, TestMaxAndAvgPool, TestIntoOverwritesAndAliases (ops) and TestExecuteIntoOverwrites (graph); no zoo model builds an average pool",
	"internal/ops.Conv2DInto":                  "the one-call conv reference: TestConvAutoMatchesNaive, TestIntoOverwritesAndAliases and the conv fuzz check (ops), checkConfig (templates), BenchmarkConv2D_ResNetBlock (unigpu)",
	"internal/ops.PreparedConv.ChannelRoutine": "TestChannelRoutineSelection (unigpu) and TestChannelFuzzSeeds (ops) pin which convs take the channel routine",
	"internal/par.Streams":                     "TestStreamsShareTheCores (par), TestStreamEndsHoweverTheRunEnds and TestFanOutPanicOnHelperIsANodeError (runtime) check that every stream ends",
	"internal/runtime.Execute":                 "the one-shot reference executor: TestExecute*, TestPeakLive* (runtime), runGraph and TestRuntimeMemoryPlanning (graph), TestClassificationModelsExecute and TestVariantsExecuteFunctionally (models)",
	"internal/sim.Platform.PeakRatio":          "TestDevicePeakRatiosMatchPaper (sim) and the package Example (unigpu) pin the GPU:CPU peak ratios of §1",
	"internal/templates.DefaultConfig":         "the untiled baseline schedule: TestDefaultConfigCorrect, TestTunedConfigBeatsDefaultCost (templates) and the search and DB tests of autotvm",
	"internal/tensor.AllClose":                 "tolerance check of the semantics tests in graph, ops, templates, tensor and vision (TestFoldBatchNormPreservesSemantics, TestConv2DMatchesNaive, TestBoxNMSMatchesSequential, ...)",
	"internal/tensor.MaxAbsDiff":               "relative error of the accuracy tests in graph, ops, runtime, templates, tensor and vision (TestPreparedOpScratchContract, TestMaxAbsDiff, ...)",
	"internal/tensor.Tensor.FillFunc":          "deterministic test inputs: TestExecuteIntoOverwrites, TestSSDDetectionOpMatchesVisionKernel (graph), TestGlobalAvgPool (ops), TestRowPrimitivesEqualPortable (tensor), TestFlatDecodeMatchesCoordinateLoops (vision)",
	"internal/vision.NaiveSegmentedArgsort":    "the per-segment sort Figure 2 replaces: TestSegmentedArgsortMatchesNaive and SequentialNMS (vision), BenchmarkFigure2_Ablation_NaiveSort (unigpu)",
}

// implicitMethods are the methods the standard library calls on a value it
// holds only as an interface it does not declare in its parameters: fmt's
// Stringer, Formatter and GoStringer, the error interface with errors'
// Unwrap, Is and As, and encoding/json's and encoding's marshalers.
var implicitMethods = []string{
	"String", "Format", "GoString", "Error", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
}

// declGraph is the module's declarations and what each one names. A
// declaration's key is its module-relative package path (the root package
// is "unigpu"), a dot and its name; a method's name is its receiver type's
// name, a dot and the method name.
type declGraph struct {
	where        map[string]string   // declaration → file:line and its length in lines
	refs         map[string][]string // declaration → the declarations it names
	methods      map[string][]string // type → the keys of its methods
	roots        []string
	ifaceMethods map[string]bool // every method name of an interface the module mentions

	// Struct fields. A field's key is the key of the declaration that
	// declares its struct type, a dot and its name; a field of an anonymous
	// struct adds its name to the key of the field or declaration holding
	// the struct.
	fields map[string]fieldDecl
	reads  map[string][]string // declaration → the fields it reads
	sets   map[string][]string // declaration → the fields it sets
	free   map[string]bool     // fields read and set wherever they are: json-tagged and API fields
}

// fieldDecl is where a struct field is declared: the declaration that owns
// it and its file:line.
type fieldDecl struct{ owner, where string }

// declKey returns the key of a package-level object or method declared in
// the module, or "" for anything else.
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	rel, ok := moduleRel(obj.Pkg().Path())
	if !ok {
		return ""
	}
	if rel == "." {
		rel = "unigpu"
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || types.IsInterface(named) {
				return ""
			}
			return rel + "." + named.Origin().Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return rel + "." + obj.Name()
}

// moduleChecker type-checks the module's packages from source for one
// GOARCH, each once, in the order imports demand.
type moduleChecker struct {
	fset    *token.FileSet
	arch    string
	bps     map[string]*build.Package
	std     types.Importer
	checked map[string]*types.Package
	g       *declGraph
	fkeys   map[*types.Var]string // every field of the checked packages → its key
}

func (m *moduleChecker) Import(path string) (*types.Package, error) {
	rel, ok := moduleRel(path)
	if !ok {
		return m.std.Import(path)
	}
	return m.check(rel)
}

// check type-checks the package in dir and adds its declarations to the graph.
func (m *moduleChecker) check(dir string) (*types.Package, error) {
	if p, ok := m.checked[dir]; ok {
		return p, nil
	}
	bp := m.bps[dir]
	if bp == nil {
		return nil, fmt.Errorf("no package in %s", dir)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m, Sizes: types.SizesFor("gc", m.arch)}
	path := "unigpu"
	if dir != "." {
		path += "/" + dir
	}
	pkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %w", dir, m.arch, err)
	}
	m.checked[dir] = pkg
	m.addDecls(dir, pkg, files, info)
	return pkg, nil
}

// addDecls records the package's declarations, what each names, the
// struct fields each declares, reads and sets, its roots and the method
// names of every interface it mentions.
func (m *moduleChecker) addDecls(dir string, pkg *types.Package, files []*ast.File, info *types.Info) {
	g := m.g
	rootAll := slices.Contains(moduleLayers[testOnlyLayer], dir)
	// A declaration: an init function or a blank variable has no key of
	// its own and is a root under a pseudo key.
	type decl struct {
		key  string
		n    ast.Node
		root bool
	}
	var decls []decl
	pseudo := 0
	add := func(key string, n ast.Node, doc *ast.CommentGroup, root bool) {
		if key == "" {
			pseudo++
			key, root = fmt.Sprintf("%s#%d", pkg.Path(), pseudo), true
		} else {
			start := n.Pos()
			if doc != nil {
				start = doc.Pos()
			}
			from, to := m.fset.Position(start), m.fset.Position(n.End())
			g.where[key] = fmt.Sprintf("%s:%d (%d lines)", from.Filename, from.Line, to.Line-from.Line+1)
		}
		decls = append(decls, decl{key, n, root || rootAll})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := declKey(info.Defs[d.Name])
				if d.Recv == nil && d.Name.Name == "init" {
					key = "" // a package may declare several
				} else if d.Recv != nil {
					typ := key[:strings.LastIndexByte(key, '.')]
					g.methods[typ] = append(g.methods[typ], key)
				}
				isMain := pkg.Name() == "main" && d.Recv == nil && d.Name.Name == "main"
				add(key, d, d.Doc, isMain || (dir == "." && d.Name.IsExported()))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					node, doc := ast.Node(d), d.Doc
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
						if d.Lparen.IsValid() {
							node, doc = s, s.Doc
						}
					case *ast.ValueSpec:
						names = s.Names
						if d.Lparen.IsValid() {
							node, doc = s, s.Doc
						}
					}
					for _, name := range names {
						add(declKey(info.Defs[name]), node, doc, dir == "." && name.IsExported())
					}
				}
			}
		}
	}
	// Key every field first: a declaration may use a field that a later
	// one declares.
	for _, d := range decls {
		ast.Inspect(d.n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				prefix := d.key
				if declKey(info.Defs[n.Name]) != d.key {
					prefix += "." + n.Name.Name // a type declared in a function
				}
				m.addFields(d.key, prefix, info.TypeOf(n.Type))
			case *ast.StructType:
				m.addFields(d.key, d.key, info.TypeOf(n))
			}
			return true
		})
	}
	for _, d := range decls {
		if d.root {
			g.roots = append(g.roots, d.key)
		}
		ast.Inspect(d.n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if to := declKey(info.Uses[id]); to != "" && to != d.key {
					g.refs[d.key] = append(g.refs[d.key], to)
				}
			}
			return true
		})
		u := &fieldUse{info: info, keys: m.fkeys}
		u.walk(d.n)
		g.reads[d.key] = append(g.reads[d.key], u.reads...)
		g.sets[d.key] = append(g.sets[d.key], u.sets...)
	}
	// The interfaces the module mentions: every interface-typed expression
	// (named or anonymous) and every interface parameter of a call.
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				g.ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	for _, tv := range info.Types {
		if tv.Type == nil {
			continue
		}
		addIface(tv.Type)
		if sig, ok := tv.Type.(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				pt := sig.Params().At(i).Type()
				if s, ok := pt.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
					pt = s.Elem()
				}
				addIface(pt)
			}
		}
	}
}

// addFields keys the fields of t, when it is a struct not keyed yet, under
// prefix, and the fields of the anonymous structs their types hold under
// their own keys. A json tag makes a field free: encoding/json reads and
// sets it.
func (m *moduleChecker) addFields(owner, prefix string, t types.Type) {
	s, ok := t.(*types.Struct)
	if !ok || s.NumFields() == 0 || m.fkeys[s.Field(0)] != "" {
		return
	}
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		if f.Name() == "_" {
			continue
		}
		key := prefix + "." + f.Name()
		m.fkeys[f] = key
		pos := m.fset.Position(f.Pos())
		m.g.fields[key] = fieldDecl{owner, fmt.Sprintf("%s:%d", pos.Filename, pos.Line)}
		if tag, ok := reflect.StructTag(s.Tag(i)).Lookup("json"); ok && tag != "-" {
			m.g.free[key] = true
		}
		ft := f.Type()
		for done := false; !done; {
			switch e := ft.(type) {
			case *types.Pointer:
				ft = e.Elem()
			case *types.Slice:
				ft = e.Elem()
			case *types.Array:
				ft = e.Elem()
			case *types.Map:
				ft = e.Elem()
			default:
				done = true
			}
		}
		m.addFields(owner, key, ft)
	}
}

// fieldUse records the fields one declaration reads and sets. A read is a
// selector that loads the field, a comparison (==, !=) or map key of its
// struct type, or handing a type that holds it to encoding/json. A set is
// an assignment (op-assignment, ++ and -- included), an element assignment
// into an array field, a composite literal, &f, slicing an array field, or
// a pointer-receiver method call on the field; the last three read it too.
type fieldUse struct {
	info        *types.Info
	keys        map[*types.Var]string // the module's fields
	reads, sets []string
}

func (u *fieldUse) field(v *types.Var, read, set bool) {
	if k := u.keys[v.Origin()]; k != "" {
		if read {
			u.reads = append(u.reads, k)
		}
		if set {
			u.sets = append(u.sets, k)
		}
	}
}

// embeddedPath returns the embedded fields a selection passes through.
func embeddedPath(sel *types.Selection) []*types.Var {
	var out []*types.Var
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		f := t.Underlying().(*types.Struct).Field(i)
		out = append(out, f)
		t = f.Type()
	}
	return out
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

func (u *fieldUse) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if m, ok := u.info.TypeOf(e).(*types.Map); ok {
				u.compared(m.Key())
			}
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, l := range n.Lhs {
					u.lhs(l)
				}
			}
			for _, r := range n.Rhs {
				u.walk(r)
			}
			return false
		case *ast.IncDecStmt:
			u.lhs(n.X)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				u.lhs(n.X) // and the walk below reads it
			}
		case *ast.SliceExpr:
			if _, ok := u.info.TypeOf(n.X).Underlying().(*types.Array); ok {
				u.lhs(n.X) // slicing an array takes its address
			}
		case *ast.SelectorExpr:
			sel := u.info.Selections[n]
			if sel == nil {
				break
			}
			for _, f := range embeddedPath(sel) {
				u.field(f, true, true)
			}
			switch sel.Kind() {
			case types.FieldVal:
				u.field(sel.Obj().(*types.Var), true, false)
			case types.MethodVal:
				recv := sel.Obj().Type().(*types.Signature).Recv()
				if isPointer(recv.Type()) && !isPointer(u.info.TypeOf(n.X)) {
					u.lhs(n.X) // the call takes the field's address
				}
			}
		case *ast.CompositeLit:
			t := u.info.TypeOf(n)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			if s, ok := t.Underlying().(*types.Struct); ok {
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						u.field(u.info.Uses[kv.Key.(*ast.Ident)].(*types.Var), false, true)
					} else {
						u.field(s.Field(i), false, true)
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				u.compared(u.info.TypeOf(n.X))
				u.compared(u.info.TypeOf(n.Y))
			}
		case *ast.CallExpr:
			var callee types.Object
			switch f := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				callee = u.info.Uses[f]
			case *ast.SelectorExpr:
				callee = u.info.Uses[f.Sel]
			}
			if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "encoding/json" {
				seen := map[types.Type]bool{}
				for _, a := range n.Args {
					u.json(u.info.TypeOf(a), seen)
				}
			}
		}
		return true
	})
}

// lhs records the fields that writing e sets: e itself, and the struct or
// array value it is part of; what it reads on the way is walked.
func (u *fieldUse) lhs(e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel := u.info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			for _, f := range embeddedPath(sel) {
				u.field(f, true, true)
			}
			u.field(sel.Obj().(*types.Var), false, true)
			if isPointer(u.info.TypeOf(e.X)) {
				u.walk(e.X)
			} else {
				u.lhs(e.X)
			}
			return
		}
	case *ast.IndexExpr:
		if _, ok := u.info.TypeOf(e.X).Underlying().(*types.Array); ok {
			u.lhs(e.X)
			u.walk(e.Index)
			return
		}
	}
	u.walk(e)
}

// compared reads every field == compares or a map key hashes in a value
// of type t.
func (u *fieldUse) compared(t types.Type) {
	switch t := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			u.field(t.Field(i), true, false)
			u.compared(t.Field(i).Type())
		}
	case *types.Array:
		u.compared(t.Elem())
	}
}

// json reads and sets every field encoding/json reaches from a value of
// type t.
func (u *fieldUse) json(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.Underlying().(type) {
	case *types.Pointer:
		u.json(t.Elem(), seen)
	case *types.Slice:
		u.json(t.Elem(), seen)
	case *types.Array:
		u.json(t.Elem(), seen)
	case *types.Map:
		u.json(t.Key(), seen)
		u.json(t.Elem(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			u.field(t.Field(i), true, true)
			u.json(t.Field(i).Type(), seen)
		}
	}
}

// apiFields returns the exported fields of the types package api declares
// or aliases, and of the module types those reach through their exported
// fields and the parameters and results of their exported methods and
// functions, each with the named struct type that declares it (nil for an
// anonymous struct).
func apiFields(api *types.Package) map[*types.Var]*types.Named {
	out := map[*types.Var]*types.Named{}
	seen := map[types.Type]bool{}
	var walk func(t types.Type, owner *types.Named)
	walk = func(t types.Type, owner *types.Named) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if t.Obj().Pkg() == nil {
				return
			}
			if _, ok := moduleRel(t.Obj().Pkg().Path()); !ok {
				return
			}
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type(), nil)
				}
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i), nil)
			}
			walk(t.Underlying(), t.Origin())
		case *types.Pointer:
			walk(t.Elem(), nil)
		case *types.Slice:
			walk(t.Elem(), nil)
		case *types.Array:
			walk(t.Elem(), nil)
		case *types.Chan:
			walk(t.Elem(), nil)
		case *types.Map:
			walk(t.Key(), nil)
			walk(t.Elem(), nil)
		case *types.Signature:
			for _, vars := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < vars.Len(); i++ {
					walk(vars.At(i).Type(), nil)
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					out[f.Origin()] = owner
					walk(f.Type(), nil)
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type(), nil)
				}
			}
		}
	}
	for _, name := range api.Scope().Names() {
		if obj := api.Scope().Lookup(name); obj.Exported() {
			walk(obj.Type(), nil)
		}
	}
	return out
}

// markAPI makes the API fields of package api free: a user of the library
// may read and set them.
func (m *moduleChecker) markAPI(api *types.Package) {
	for f := range apiFields(api) {
		if k := m.fkeys[f]; k != "" {
			m.g.free[k] = true
		}
	}
}

func newDeclGraph() *declGraph {
	g := &declGraph{where: map[string]string{}, refs: map[string][]string{}, methods: map[string][]string{}, ifaceMethods: map[string]bool{},
		fields: map[string]fieldDecl{}, reads: map[string][]string{}, sets: map[string][]string{}, free: map[string]bool{}}
	for _, name := range implicitMethods {
		g.ifaceMethods[name] = true
	}
	return g
}

// moduleDeclGraph type-checks every package of the module, test files
// excluded, at each of archs, and unions the declarations by key. It also
// returns the file set and the standard library importer it used, with
// which more packages can be checked into a clone of the graph.
func moduleDeclGraph(t *testing.T) (*declGraph, *token.FileSet, types.Importer) {
	t.Helper()
	g := newDeclGraph()
	builds := map[string]map[string]*build.Package{}
	for _, arch := range archs {
		builds[arch] = buildPackages(t, arch)
	}
	fset := token.NewFileSet()
	std := stdImporter(t, fset, builds)
	for _, arch := range archs {
		m := &moduleChecker{fset: fset, arch: arch, bps: builds[arch], std: std, checked: map[string]*types.Package{}, g: g, fkeys: map[*types.Var]string{}}
		for dir := range m.bps {
			if _, err := m.check(dir); err != nil {
				t.Fatal(err)
			}
		}
		m.markAPI(m.checked["."])
	}
	return g, fset, std
}

// clone returns a copy of g that checking more packages into leaves g as
// it was.
func (g *declGraph) clone() *declGraph {
	c := &declGraph{where: maps.Clone(g.where), refs: map[string][]string{}, methods: map[string][]string{},
		roots: slices.Clone(g.roots), ifaceMethods: maps.Clone(g.ifaceMethods),
		fields: maps.Clone(g.fields), reads: map[string][]string{}, sets: map[string][]string{}, free: maps.Clone(g.free)}
	for _, m := range []struct{ to, from map[string][]string }{{c.refs, g.refs}, {c.methods, g.methods}, {c.reads, g.reads}, {c.sets, g.sets}} {
		for k, v := range m.from {
			m.to[k] = slices.Clone(v)
		}
	}
	return c
}

// stdImporter reads the standard library's export data, located by one go
// list call over every standard package the builds import.
func stdImporter(t *testing.T, fset *token.FileSet, builds map[string]map[string]*build.Package) types.Importer {
	t.Helper()
	var std []string
	for _, pkgs := range builds {
		for _, p := range pkgs {
			for _, imp := range p.Imports {
				if _, ok := moduleRel(imp); !ok && imp != "unsafe" && !slices.Contains(std, imp) {
					std = append(std, imp)
				}
			}
		}
	}
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, std...)...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		export[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
}

// reach returns every declaration reached from the given ones: what a
// reached declaration names, and each method of a reached type whose name
// some interface of the module declares, to a fixpoint.
func (g *declGraph) reach(from []string) map[string]bool {
	reached := map[string]bool{}
	work := slices.Clone(from)
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[key] {
			continue
		}
		reached[key] = true
		work = append(work, g.refs[key]...)
		for _, m := range g.methods[key] {
			if g.ifaceMethods[m[strings.LastIndexByte(m, '.')+1:]] {
				work = append(work, m)
			}
		}
	}
	return reached
}

// verdict returns the complaints about g under allow, sorted: an
// allowlist entry that gives no reason, names no declaration or field, or
// is reached (a field: read and set), every declaration nothing reaches
// from the roots and the allowlist, and every field of a reached
// declaration that no reached declaration reads, or none sets, unless it
// is free.
func (g *declGraph) verdict(allow map[string]string) []string {
	var out []string
	reached := g.reach(g.roots)
	kept := slices.Clone(g.roots)
	for name := range allow {
		kept = append(kept, name)
	}
	all := g.reach(kept)
	read, set := maps.Clone(g.free), maps.Clone(g.free)
	for key := range all {
		for _, f := range g.reads[key] {
			read[f] = true
		}
		for _, f := range g.sets[key] {
			set[f] = true
		}
	}
	for name, reason := range allow {
		_, field := g.fields[name]
		switch {
		case reason == "":
			out = append(out, fmt.Sprintf("allowlist entry %s gives no reason", name))
		case g.where[name] == "" && !field:
			out = append(out, fmt.Sprintf("allowlist entry %s names no declaration; delete the entry", name))
		case reached[name]:
			out = append(out, fmt.Sprintf("allowlist entry %s is reached; delete the entry", name))
		case field && read[name] && set[name]:
			out = append(out, fmt.Sprintf("allowlist entry %s is read and set; delete the entry", name))
		}
	}
	for key, where := range g.where {
		if !all[key] {
			out = append(out, fmt.Sprintf("nothing reaches %s at %s", key, where))
		}
	}
	for f, d := range g.fields {
		if _, ok := allow[f]; ok || !all[d.owner] {
			continue
		}
		if !read[f] {
			out = append(out, fmt.Sprintf("nothing reads %s at %s", f, d.where))
		}
		if !set[f] {
			out = append(out, fmt.Sprintf("nothing sets %s at %s", f, d.where))
		}
	}
	slices.Sort(out)
	return out
}

// plantedPar is a file added to a copy of internal/par, and plantedParTest
// a test file beside it. Each planted declaration is one way a declaration
// can go unreached, or be reached with no caller in the module; each
// planted field one way a field can go unread or unset, or be read and set
// by no selector.
const (
	plantedPar = `package par

import (
	"sync"
	"sync/atomic"
)

type plantedFields struct {
	written int // set, never read
	unset   int // read, never set
	Tagged  int ` + "`json:\"tagged\"`" + `
	mu      sync.Mutex
	n       atomic.Int64
}

type plantedKey struct{ a, b int }

type plantedBox[T any] struct{ v T }

type PlantedAPI struct{ Knob int }

var _ = plantedUseFields

func plantedUseFields(api PlantedAPI) int {
	var f plantedFields
	f.written = 1
	f.mu.Lock()
	f.n.Add(1)
	f.mu.Unlock()
	seen := map[plantedKey]bool{{1, 2}: true}
	b := plantedBox[int]{v: 1}
	return f.unset + len(seen) + b.v
}

func plantedUnused() {}

func (w *worker) plantedMethod() {}

func (w *worker) String() string { return "worker" }

func plantedTestOnly() {}

var _ = plantedViaBlank

func plantedViaBlank() {}
`
	plantedParTest = `package par

import "testing"

func TestPlanted(t *testing.T) { plantedTestOnly() }
`
)

// plantedGraph returns a copy of g into which internal/par is checked
// again, at amd64, from a directory holding its files, plantedPar and
// plantedParTest. The planted package's exported names stand in for the
// unigpu API: the exported fields of its exported types are API fields.
func plantedGraph(t *testing.T, g *declGraph, fset *token.FileSet, std types.Importer) *declGraph {
	t.Helper()
	ctxt := build.Default
	ctxt.GOARCH = "amd64"
	real, err := ctxt.ImportDir("internal/par", 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := map[string]string{"planted.go": plantedPar, "planted_test.go": plantedParTest}
	for _, name := range real.GoFiles {
		src, err := os.ReadFile(filepath.Join(real.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = string(src)
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bp, err := ctxt.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := g.clone()
	m := &moduleChecker{fset: fset, arch: "amd64", bps: map[string]*build.Package{"internal/par": bp}, std: std, checked: map[string]*types.Package{}, g: p, fkeys: map[*types.Var]string{}}
	pkg, err := m.check("internal/par")
	if err != nil {
		t.Fatal(err)
	}
	m.markAPI(pkg)
	return p
}

// TestEveryDeclarationIsReached holds the module to the code its binaries
// and the unigpu API reach. The roots are every main package's main, every
// init and blank variable, every exported name and method of package
// unigpu, and every declaration of a test-only package; a declaration
// nothing reaches from them fails the test unless reachAllowlist names it.
// The subtests check the verdict on a copy of internal/par with planted
// declarations and on planted allowlist entries.
func TestEveryDeclarationIsReached(t *testing.T) {
	g, fset, std := moduleDeclGraph(t)
	for _, c := range g.verdict(reachAllowlist) {
		t.Error(c)
	}
	p := plantedGraph(t, g, fset, std)
	with := func(name, reason string) map[string]string {
		allow := maps.Clone(reachAllowlist)
		allow[name] = reason
		return allow
	}
	for _, c := range []struct {
		name    string
		allow   map[string]string
		want    string // a complaint that begins so must be made
		wantNot string // no complaint may name this declaration or field
	}{
		{name: "planted unused function", allow: reachAllowlist, want: "nothing reaches internal/par.plantedUnused at "},
		{name: "unused method on a reached type", allow: reachAllowlist, want: "nothing reaches internal/par.worker.plantedMethod at "},
		{name: "function called only by its own test", allow: reachAllowlist, want: "nothing reaches internal/par.plantedTestOnly at "},
		{name: "method an interface may call is kept", allow: reachAllowlist, wantNot: "internal/par.worker.String"},
		{name: "blank variable is a root", allow: reachAllowlist, wantNot: "internal/par.plantedViaBlank"},
		{name: "allowlisted declaration is kept", allow: with("internal/par.plantedUnused", "planted"), wantNot: "internal/par.plantedUnused"},
		{name: "allowlist entry whose target was deleted", allow: with("internal/par.plantedGone", "planted"), want: "allowlist entry internal/par.plantedGone names no declaration"},
		{name: "allowlist entry that is reached", allow: with("internal/par.For", "planted"), want: "allowlist entry internal/par.For is reached"},
		{name: "allowlist entry without a reason", allow: with("internal/par.plantedUnused", ""), want: "allowlist entry internal/par.plantedUnused gives no reason"},
		{name: "write-only field", allow: reachAllowlist, want: "nothing reads internal/par.plantedFields.written at "},
		{name: "never-set field", allow: reachAllowlist, want: "nothing sets internal/par.plantedFields.unset at "},
		{name: "json-tagged field", allow: reachAllowlist, wantNot: "internal/par.plantedFields.Tagged"},
		{name: "field of a map key", allow: reachAllowlist, wantNot: "internal/par.plantedKey.a"},
		{name: "mutex used through its methods", allow: reachAllowlist, wantNot: "internal/par.plantedFields.mu"},
		{name: "atomic used through its methods", allow: reachAllowlist, wantNot: "internal/par.plantedFields.n"},
		{name: "field of a generic struct", allow: reachAllowlist, wantNot: "internal/par.plantedBox.v"},
		{name: "API field", allow: reachAllowlist, wantNot: "internal/par.PlantedAPI.Knob"},
		{name: "allowlisted field is kept", allow: with("internal/par.plantedFields.written", "planted"), wantNot: "internal/par.plantedFields.written"},
		{name: "allowlist entry for a field read and set", allow: with("internal/par.plantedKey.a", "planted"), want: "allowlist entry internal/par.plantedKey.a is read and set"},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := p.verdict(c.allow)
			if c.want != "" && !slices.ContainsFunc(got, func(s string) bool { return strings.HasPrefix(s, c.want) }) {
				t.Errorf("no complaint begins %q; got %q", c.want, got)
			}
			if c.wantNot != "" && slices.ContainsFunc(got, func(s string) bool { return strings.Contains(s, " "+c.wantNot+" ") }) {
				t.Errorf("a complaint names %s; got %q", c.wantNot, got)
			}
		})
	}
	t.Run("only planted declarations are flagged", func(t *testing.T) {
		for _, c := range p.verdict(reachAllowlist) {
			if !strings.Contains(c, ".planted") {
				t.Errorf("the planted copy of internal/par adds a complaint about real code: %s", c)
			}
		}
	})
}

// exportedOptions returns the independently settable fields of the option
// structs package api exposes, as package.Type.Field: the API fields of
// every struct type whose name ends in Options, where a field that holds a
// struct of exported fields only (by value or pointer) counts that
// struct's fields instead, to any depth.
func exportedOptions(api *types.Package) []string {
	// plain returns t's struct when t is, or points to, a named struct of
	// exported fields only.
	plain := func(t types.Type) (*types.Named, *types.Struct) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := types.Unalias(t).(*types.Named)
		if !ok {
			return nil, nil
		}
		s, ok := n.Underlying().(*types.Struct)
		if !ok || s.NumFields() == 0 {
			return nil, nil
		}
		for i := 0; i < s.NumFields(); i++ {
			if !s.Field(i).Exported() {
				return nil, nil
			}
		}
		return n, s
	}
	var out []string
	var add func(owner *types.Named, f *types.Var)
	add = func(owner *types.Named, f *types.Var) {
		if n, s := plain(f.Type()); n != nil {
			for i := 0; i < s.NumFields(); i++ {
				add(n, s.Field(i))
			}
			return
		}
		if name := owner.Obj().Pkg().Name() + "." + owner.Obj().Name() + "." + f.Name(); !slices.Contains(out, name) {
			out = append(out, name)
		}
	}
	for f, owner := range apiFields(api) {
		if owner != nil && strings.HasSuffix(owner.Obj().Name(), "Options") {
			add(owner, f)
		}
	}
	slices.Sort(out)
	return out
}

// TestExportedOptionCount logs the number of independently settable fields
// of the option structs package unigpu exposes, nested ones included, the
// way make loc prints it, and each field under -v. It fails if the count
// leaves out SessionOptions, so a walk gone blind cannot print a small
// number.
func TestExportedOptionCount(t *testing.T) {
	bps := buildPackages(t, "amd64")
	fset := token.NewFileSet()
	std := stdImporter(t, fset, map[string]map[string]*build.Package{"amd64": bps})
	m := &moduleChecker{fset: fset, arch: "amd64", bps: bps, std: std, checked: map[string]*types.Package{}, g: newDeclGraph(), fkeys: map[*types.Var]string{}}
	api, err := m.check(".")
	if err != nil {
		t.Fatal(err)
	}
	opts := exportedOptions(api)
	t.Logf("exported options: %d", len(opts))
	for _, o := range opts {
		t.Log(o)
	}
	if !slices.Contains(opts, "runtime.SessionOptions.Model") {
		t.Errorf("runtime.SessionOptions.Model is not among the exported options %q", opts)
	}
}
