package bench

import (
	"fmt"
	"strings"

	"unigpu/internal/codegen"
	"unigpu/internal/ir"
	"unigpu/internal/sim"
	"unigpu/internal/te"
	"unigpu/internal/vision"
)

// ExperimentsReport renders the full paper-vs-measured markdown document
// (EXPERIMENTS.md): every table and figure of the evaluation, regenerated
// on the simulated platforms, next to the paper's published numbers.
func (e *Estimator) ExperimentsReport() string {
	var b strings.Builder
	b.WriteString(`# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (§4), regenerated with
this repository. Regenerate with ` + "`go run ./cmd/unigpu-bench -table experiments`" + `
(or per artifact: ` + "`-table 1..5 | fallback | irsize`" + `).

Absolute milliseconds come from the calibrated analytical device models
(see DESIGN.md, "Hardware substitution") — the reproduction targets the
*shape* of each result: who wins, by roughly what factor, where coverage
gaps and crossovers fall. "paper" columns quote the publication verbatim.

**Known deviations** (documented, not hidden):

- The paper does not state YOLOv3's input resolution; 416 makes the
  published latencies inconsistent with the ResNet-calibrated device
  efficiencies on all three platforms, so this reproduction uses 320 (a
  standard GluonCV yolo3 size) — see DESIGN.md.
- Vendor baselines are fitted per-class efficiency profiles (the real
  libraries are closed binaries for hardware Go cannot drive), so their
  per-model errors are a few percent by construction; coverage gaps
  (OpenVINO's missing detection support) are structural, not fitted.
- Tables 4 and 5 compare against the paper within bands: the "Before"
  configurations are reconstructions of unoptimized implementations the
  paper never fully specifies.

`)

	// Tables 1-3.
	for n := 1; n <= 3; n++ {
		t := e.OverallTable(n)
		paper := PaperTables1to3[n]
		fmt.Fprintf(&b, "## Table %d — ours vs %s on %s\n\n", n, t.Baseline, t.Platform.Name)
		fmt.Fprintf(&b, "| Model | Ours (ms) | paper | %s (ms) | paper | Speedup | paper |\n", t.Baseline)
		b.WriteString("|---|---|---|---|---|---|---|\n")
		for _, r := range t.Rows {
			p := paper[r.Model]
			if !r.Supported {
				fmt.Fprintf(&b, "| %s | %.2f | %.2f | — | — | — | — |\n", r.Model, r.OursMs, p.Ours)
				continue
			}
			fmt.Fprintf(&b, "| %s | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f |\n",
				r.Model, r.OursMs, p.Ours, r.BaselineMs, p.Baseline, r.Speedup, p.Baseline/p.Ours)
		}
		b.WriteString("\n")
	}

	// Table 4.
	b.WriteString("## Table 4 — vision-specific operator optimizations (§3.1)\n\n")
	b.WriteString("| Device | Model | Before (ms) | paper | After (ms) | paper | Speedup | paper |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range e.VisionAblation() {
		p := PaperTable4[r.Device][r.Model]
		fmt.Fprintf(&b, "| %s | %s | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f |\n",
			r.Device, r.Model, r.BeforeMs, p.Before, r.AfterMs, p.After, r.Speedup, p.Before/p.After)
	}
	b.WriteString("\nShape check: every entry speeds up; aiSage (Mali, no shared memory) gains the most — §4.3.\n\n")

	// Table 5.
	b.WriteString("## Table 5 — tuning-based convolution optimizations (§3.2)\n\n")
	b.WriteString("| Device | Model | Before (ms) | paper | After (ms) | paper | Speedup | paper |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range e.TuningAblation() {
		p := PaperTable5[r.Device][r.Model]
		fmt.Fprintf(&b, "| %s | %s | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f |\n",
			r.Device, r.Model, r.BeforeMs, p.Before, r.AfterMs, p.After, r.Speedup, p.Before/p.After)
	}
	b.WriteString("\nShape check: tuning always helps; the Jetson Nano gains the most (its default CUDA schedule fills 1/8 of a warp).\n\n")

	// Fallback experiment.
	f := e.FallbackExperiment()
	b.WriteString("## §3.1.2 — CPU-fallback overhead (SSD_ResNet50, AWS DeepLens)\n\n")
	b.WriteString("| Configuration | ms | paper (ms) |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| entirely on integrated GPU | %.2f | %.2f |\n", f.AllGPUMs, PaperFallback.AllGPUMs)
	fmt.Fprintf(&b, "| NMS fallback to CPU | %.2f | %.2f |\n", f.FallbackMs, PaperFallback.FallbackMs)
	fmt.Fprintf(&b, "| overhead | %.2f%% | %.2f%% (<0.5%%) |\n\n", f.OverheadPct, PaperFallback.OverheadPct)

	// Figures 2 and 3.
	b.WriteString(`## Figure 2 — segmented sort pipeline

Reproduced as the executable algorithm in ` + "`internal/vision/sort.go`" + `:
flatten → equal-size blocks → parallel block sort → cooperative merge
rounds (coop 2, 4, 8, ...) touching only active interfaces. Property tests
verify segment isolation, permutation and ordering against a per-segment
reference; ` + "`BenchmarkFigure2_*`" + ` measures it against the naive
per-segment baseline; modelled GPU costs:

| Device | naive per-segment sort (ms) | segmented sort (ms) |
|---|---|---|
`)
	for _, p := range sim.Platforms() {
		fmt.Fprintf(&b, "| %s | %.2f | %.2f |\n",
			p.Name,
			vision.NaiveSortCost(p.GPU, 24528, 20)*1e3,
			vision.SegmentedSortCost(p.GPU, 24528)*1e3)
	}
	b.WriteString(`
## Figure 3 — three-stage prefix sum

The paper's exact example (18 elements, 5 processors) is a unit test
(` + "`TestFigure3PrefixSumExample`" + `): up-sweep reductions 14 9 7 12 4,
Hillis–Steele scan 14 23 30 42 46, down-sweep output
5 12 13 14 17 21 23 23 26 27 28 30 36 37 39 42 43 46. Modelled GPU costs
for a 1M-element scan:

| Device | Hillis–Steele (log n syncs) (ms) | register-blocked 3-stage (ms) |
|---|---|---|
`)
	for _, p := range sim.Platforms() {
		fmt.Fprintf(&b, "| %s | %.2f | %.2f |\n",
			p.Name, vision.NaiveScanCost(p.GPU, 1<<20)*1e3, vision.ScanCost(p.GPU, 1<<20)*1e3)
	}

	// IR-size experiment.
	irL, cuL, clL := IRSizeExperiment()
	b.WriteString(fmt.Sprintf(`
## §3.1.1 — engineering effort (unified IR vs hand-written CUDA)

The vision pipeline (predicated NMS suppression, register-blocked scan
up-sweep, box decoding) authored once in the unified IR and emitted to
both backends (`+"`internal/vision/irkernels.go`"+`):

| authored IR lines | generated CUDA lines | generated OpenCL lines |
|---|---|---|
| %d | %d | %d |

The paper reports ~100 lines of IR replacing 325 lines of CUDA for its
(larger) operator set; the ratio — one concise IR source serving two
backend implementations — is what this experiment checks.
`, irL, cuL, clL))

	return b.String()
}

// IRSizeExperiment measures the §3.1.1 conciseness comparison.
func IRSizeExperiment() (irLines, cudaLines, openclLines int) {
	for _, k := range []*te.Kernel{
		vision.NMSSuppressKernel(4096, 0.5),
		vision.ScanUpSweepKernel(4096, 64),
		vision.DecodeBoxKernel(4096),
	} {
		irLines += ir.CountLines(k.Body)
		cudaLines += codegen.LineCount(codegen.Emit(k, codegen.CUDA))
		openclLines += codegen.LineCount(codegen.Emit(k, codegen.OpenCL))
	}
	return
}
