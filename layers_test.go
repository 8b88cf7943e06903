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

// reachAllowlist names the declarations that no binary reaches but that
// stay, each with the reason and the tests that use it. An entry that
// becomes reached, or whose declaration is gone, fails
// TestEveryDeclarationIsReached.
var reachAllowlist = map[string]string{
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
}

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
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
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

// addDecls records the package's declarations, what each names, its roots
// and the method names of every interface it mentions.
func (m *moduleChecker) addDecls(dir string, pkg *types.Package, files []*ast.File, info *types.Info) {
	g := m.g
	rootAll := slices.Contains(moduleLayers[testOnlyLayer], dir)
	pseudo := 0
	// add records one declaration; an init function or a blank variable
	// has no key and is a root under a key of its own.
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
		if root || rootAll {
			g.roots = append(g.roots, key)
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if to := declKey(info.Uses[id]); to != "" && to != key {
					g.refs[key] = append(g.refs[key], to)
				}
			}
			return true
		})
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

// moduleDeclGraph type-checks every package of the module, test files
// excluded, at each of archs, and unions the declarations by key. It also
// returns the file set and the standard library importer it used, with
// which more packages can be checked into a clone of the graph.
func moduleDeclGraph(t *testing.T) (*declGraph, *token.FileSet, types.Importer) {
	t.Helper()
	g := &declGraph{where: map[string]string{}, refs: map[string][]string{}, methods: map[string][]string{}, ifaceMethods: map[string]bool{}}
	for _, name := range implicitMethods {
		g.ifaceMethods[name] = true
	}
	builds := map[string]map[string]*build.Package{}
	for _, arch := range archs {
		builds[arch] = buildPackages(t, arch)
	}
	fset := token.NewFileSet()
	std := stdImporter(t, fset, builds)
	for _, arch := range archs {
		m := &moduleChecker{fset: fset, arch: arch, bps: builds[arch], std: std, checked: map[string]*types.Package{}, g: g}
		for dir := range m.bps {
			if _, err := m.check(dir); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g, fset, std
}

// clone returns a copy of g that checking more packages into leaves g as
// it was.
func (g *declGraph) clone() *declGraph {
	c := &declGraph{where: maps.Clone(g.where), refs: map[string][]string{}, methods: map[string][]string{},
		roots: slices.Clone(g.roots), ifaceMethods: maps.Clone(g.ifaceMethods)}
	for k, v := range g.refs {
		c.refs[k] = slices.Clone(v)
	}
	for k, v := range g.methods {
		c.methods[k] = slices.Clone(v)
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
// allowlist entry that gives no reason, names no declaration or is
// reached, and every declaration nothing reaches from the roots and the
// allowlist.
func (g *declGraph) verdict(allow map[string]string) []string {
	var out []string
	reached := g.reach(g.roots)
	kept := slices.Clone(g.roots)
	for name, reason := range allow {
		switch {
		case reason == "":
			out = append(out, fmt.Sprintf("allowlist entry %s gives no reason", name))
		case g.where[name] == "":
			out = append(out, fmt.Sprintf("allowlist entry %s names no declaration; delete the entry", name))
		case reached[name]:
			out = append(out, fmt.Sprintf("allowlist entry %s is reached; delete the entry", name))
		}
		kept = append(kept, name)
	}
	reached = g.reach(kept)
	for key, where := range g.where {
		if !reached[key] {
			out = append(out, fmt.Sprintf("nothing reaches %s at %s", key, where))
		}
	}
	slices.Sort(out)
	return out
}

// plantedPar is a file added to a copy of internal/par, and plantedParTest
// a test file beside it. Each planted declaration is one way a declaration
// can go unreached, or be reached with no caller in the module.
const (
	plantedPar = `package par

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
// plantedParTest.
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
	m := &moduleChecker{fset: fset, arch: "amd64", bps: map[string]*build.Package{"internal/par": bp}, std: std, checked: map[string]*types.Package{}, g: p}
	if _, err := m.check("internal/par"); err != nil {
		t.Fatal(err)
	}
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
		wantNot string // no complaint may begin so
	}{
		{name: "planted unused function", allow: reachAllowlist, want: "nothing reaches internal/par.plantedUnused at "},
		{name: "unused method on a reached type", allow: reachAllowlist, want: "nothing reaches internal/par.worker.plantedMethod at "},
		{name: "function called only by its own test", allow: reachAllowlist, want: "nothing reaches internal/par.plantedTestOnly at "},
		{name: "method an interface may call is kept", allow: reachAllowlist, wantNot: "nothing reaches internal/par.worker.String "},
		{name: "blank variable is a root", allow: reachAllowlist, wantNot: "nothing reaches internal/par.plantedViaBlank "},
		{name: "allowlisted declaration is kept", allow: with("internal/par.plantedUnused", "planted"), wantNot: "nothing reaches internal/par.plantedUnused "},
		{name: "allowlist entry whose target was deleted", allow: with("internal/par.plantedGone", "planted"), want: "allowlist entry internal/par.plantedGone names no declaration"},
		{name: "allowlist entry that is reached", allow: with("internal/par.For", "planted"), want: "allowlist entry internal/par.For is reached"},
		{name: "allowlist entry without a reason", allow: with("internal/par.plantedUnused", ""), want: "allowlist entry internal/par.plantedUnused gives no reason"},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := p.verdict(c.allow)
			begins := func(prefix string) bool {
				return slices.ContainsFunc(got, func(s string) bool { return strings.HasPrefix(s, prefix) })
			}
			if c.want != "" && !begins(c.want) {
				t.Errorf("no complaint begins %q; got %q", c.want, got)
			}
			if c.wantNot != "" && begins(c.wantNot) {
				t.Errorf("a complaint begins %q; got %q", c.wantNot, got)
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
