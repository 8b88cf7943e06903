package unigpu

import (
	"errors"
	"go/build"
	"io/fs"
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
// imports it.
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
	{"bench/e2e/harness", "internal/baselines", "internal/codegen", "internal/exec"},
	{"internal/bench"},
	{"bench/e2e", "cmd/bench2json", "cmd/unigpu-bench", "cmd/unigpu-calibrate",
		"cmd/unigpu-run", "cmd/unigpu-tune", "examples/fallback",
		"examples/objectdetection", "examples/quickstart", "examples/tuning"},
}

// firstHarnessLayer is the index of the harness's bottom layer.
const firstHarnessLayer = 9

// forbiddenImports are edges the layer order alone would allow. The graph
// executor runs nodes through graph.PreparedOp and must not learn what is
// inside an operator.
var forbiddenImports = map[string]string{
	"internal/runtime": "internal/ops",
}

// modulePackages maps each package directory under the module root to its
// module imports (module-relative, "." for the root), as the amd64 and
// arm64 builds see them; test files are not included.
func modulePackages(t *testing.T) map[string][]string {
	t.Helper()
	pkgs := map[string][]string{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		for _, arch := range []string{"amd64", "arm64"} {
			ctxt := build.Default
			ctxt.GOARCH = arch
			p, err := ctxt.ImportDir(dir, 0)
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			if err != nil {
				return err
			}
			imports := pkgs[filepath.ToSlash(dir)]
			for _, imp := range p.Imports {
				if imp == "unigpu" {
					imp = "unigpu/."
				}
				if rel, ok := strings.CutPrefix(imp, "unigpu/"); ok && !slices.Contains(imports, rel) {
					imports = append(imports, rel)
				}
			}
			pkgs[filepath.ToSlash(dir)] = imports
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestModuleLayers holds every package of the module to moduleLayers: the
// table names each package once, imports point to lower layers, no
// product package imports the harness, the host worker pool
// (internal/par) imports only the standard library, and no forbidden
// edge exists.
func TestModuleLayers(t *testing.T) {
	layerOf := map[string]int{}
	for i, pkgs := range moduleLayers {
		for _, p := range pkgs {
			if _, dup := layerOf[p]; dup {
				t.Errorf("%s is declared twice", p)
			}
			layerOf[p] = i
		}
	}
	found := modulePackages(t)
	for p := range layerOf {
		if _, ok := found[p]; !ok {
			t.Errorf("%s is declared but holds no package", p)
		}
	}
	for p, imports := range found {
		layer, ok := layerOf[p]
		if !ok {
			t.Errorf("%s is missing from moduleLayers", p)
			continue
		}
		if p == "internal/par" && len(imports) > 0 {
			t.Errorf("internal/par must import the standard library only, imports %v", imports)
		}
		for _, imp := range imports {
			to, ok := layerOf[imp]
			switch {
			case !ok:
				// Reported above as missing.
			case layer < firstHarnessLayer && to >= firstHarnessLayer:
				t.Errorf("product package %s imports harness package %s", p, imp)
			case to >= layer:
				t.Errorf("%s (layer %d) imports %s (layer %d): imports must point to a lower layer", p, layer, imp, to)
			}
			if forbiddenImports[p] == imp {
				t.Errorf("%s must not import %s", p, imp)
			}
		}
	}
}
