package bench

import (
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"unigpu/internal/sim"
)

// The experiment harness is expensive (it tunes every workload on every
// device), so all tests share one estimator and compute each artifact once.
var (
	once    sync.Once
	est     *Estimator
	tables  [4]Table // index 1..3
	visRows []AblationRow
	tuning  []AblationRow
	fallbck FallbackResult
)

func artifacts() {
	once.Do(func() {
		est = NewEstimator()
		for n := 1; n <= 3; n++ {
			tables[n] = est.OverallTable(n)
		}
		visRows = est.VisionAblation()
		tuning = est.TuningAblation()
		fallbck = est.FallbackExperiment()
	})
}

// sideMatches reports whether a measured speedup falls on the same side of
// 1.0 as the paper's, treating near-ties (within 12%) as compatible.
func sideMatches(got, paper float64) bool {
	if (got >= 1) == (paper >= 1) {
		return true
	}
	return math.Abs(got-1) < 0.12 || math.Abs(paper-1) < 0.07
}

func TestTables1to3ReproducePaperShape(t *testing.T) {
	artifacts()
	for n := 1; n <= 3; n++ {
		paper := PaperTables1to3[n]
		for _, r := range tables[n].Rows {
			want := paper[r.Model]
			if want.Baseline < 0 {
				if r.Supported {
					t.Errorf("table %d %s: baseline should be unsupported (OpenVINO gap)", n, r.Model)
				}
				continue
			}
			if !r.Supported {
				t.Errorf("table %d %s: baseline unexpectedly unsupported", n, r.Model)
				continue
			}
			paperSpeedup := want.Baseline / want.Ours
			if !sideMatches(r.Speedup, paperSpeedup) {
				t.Errorf("table %d %s: speedup %.2f on wrong side of paper's %.2f",
					n, r.Model, r.Speedup, paperSpeedup)
			}
		}
	}
}

func TestOursWithinFactorTwoOfPaper(t *testing.T) {
	artifacts()
	for n := 1; n <= 3; n++ {
		paper := PaperTables1to3[n]
		for _, r := range tables[n].Rows {
			ratio := r.OursMs / paper[r.Model].Ours
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("table %d %s: ours %.1f ms vs paper %.1f ms (x%.2f) outside the 2x band",
					n, r.Model, r.OursMs, paper[r.Model].Ours, ratio)
			}
		}
	}
}

func TestHeadlineSpeedupUpTo162(t *testing.T) {
	artifacts()
	// The abstract's claim: similar or better performance, up to ~1.62x.
	best := 0.0
	for n := 1; n <= 3; n++ {
		for _, r := range tables[n].Rows {
			if r.Supported && r.Speedup > best {
				best = r.Speedup
			}
		}
	}
	if best < 1.2 || best > 2.2 {
		t.Errorf("best speedup %.2f should be a clear win in the 1.2-2.2 band (paper: 1.62)", best)
	}
}

func TestTable4VisionOptimizationAlwaysHelps(t *testing.T) {
	artifacts()
	paper := PaperTable4
	perDevice := map[string]float64{}
	for _, r := range visRows {
		if r.Speedup <= 1.0 {
			t.Errorf("%s %s: vision optimization must speed things up, got %.2f",
				r.Device, r.Model, r.Speedup)
		}
		want := paper[r.Device][r.Model]
		paperSpeed := want.Before / want.After
		// Within a 3x band of the paper's ratio (substrate is a model).
		if r.Speedup > paperSpeed*3 || r.Speedup < paperSpeed/3 {
			t.Errorf("%s %s: speedup %.2f vs paper %.2f outside 3x band",
				r.Device, r.Model, r.Speedup, paperSpeed)
		}
		perDevice[r.Device] += r.Speedup
	}
	// §4.3: "aiSage benefits most from the vision-specific operations".
	if perDevice["Acer aiSage"] <= perDevice["AWS DeepLens"] ||
		perDevice["Acer aiSage"] <= perDevice["Nvidia Jetson Nano"] {
		t.Errorf("aiSage should gain the most: %v", perDevice)
	}
}

func TestTable5TuningAlwaysHelps(t *testing.T) {
	artifacts()
	perDevice := map[string]float64{}
	for _, r := range tuning {
		if r.Speedup < 1.4 {
			t.Errorf("%s %s: tuning speedup only %.2f", r.Device, r.Model, r.Speedup)
		}
		perDevice[r.Device] += r.Speedup
	}
	// The Jetson Nano shows the largest tuning gains (paper: up to 39.3x;
	// its default CUDA schedule fills 1/8 of a warp).
	if perDevice["Nvidia Jetson Nano"] <= perDevice["AWS DeepLens"] ||
		perDevice["Nvidia Jetson Nano"] <= perDevice["Acer aiSage"] {
		t.Errorf("Nano should gain the most from tuning: %v", perDevice)
	}
}

func TestFallbackOverheadUnderHalfPercent(t *testing.T) {
	artifacts()
	if fallbck.OverheadPct <= 0 {
		t.Errorf("fallback must cost something (copies), got %.3f%%", fallbck.OverheadPct)
	}
	if fallbck.OverheadPct >= 0.5 {
		t.Errorf("fallback overhead %.2f%% should stay under the paper's 0.5%%", fallbck.OverheadPct)
	}
	if fallbck.FallbackMs <= fallbck.AllGPUMs {
		t.Error("fallback path should be slightly slower than all-GPU")
	}
}

func TestAiSageUses300Input(t *testing.T) {
	artifacts()
	m := est.Model("SSD_ResNet50", sim.AiSage)
	if m.InputSize != 300 {
		t.Fatalf("aiSage SSD input = %d, want 300 (§4.2 memory limitation)", m.InputSize)
	}
	if est.Model("SSD_ResNet50", sim.DeepLens).InputSize != 512 {
		t.Fatal("other platforms use 512")
	}
}

func TestEstimatorDeterminism(t *testing.T) {
	artifacts()
	e2 := NewEstimator()
	again := e2.OverallTable(3)
	for i, r := range tables[3].Rows {
		if math.Abs(r.OursMs-again.Rows[i].OursMs) > 1e-9 {
			t.Fatalf("%s: %.6f vs %.6f — estimator must be deterministic",
				r.Model, r.OursMs, again.Rows[i].OursMs)
		}
	}
}

func TestTunedBeatsUntunedEverywhere(t *testing.T) {
	artifacts()
	for _, p := range sim.Platforms() {
		for _, name := range modelOrder[:3] {
			m := est.Model(name, p)
			tuned := est.TunedConvMs(m, p.GPU).TotalMs
			untuned := est.UntunedConvMs(m, p.GPU)
			if tuned >= untuned {
				t.Errorf("%s %s: tuned %.2f >= untuned %.2f", p.Name, name, tuned, untuned)
			}
		}
	}
}

func TestFormatRendering(t *testing.T) {
	artifacts()
	s := tables[1].Format()
	for _, want := range []string{"Table 1", "OpenVINO", "—", "ResNet50_v1"} {
		if !containsStr(s, want) {
			t.Errorf("formatted table missing %q:\n%s", want, s)
		}
	}
	a := FormatAblation("Table 5", tuning)
	if !containsStr(a, "Before (ms)") || !containsStr(a, "Nvidia Jetson Nano") {
		t.Errorf("ablation format wrong:\n%s", a)
	}
}

func containsStr(s, sub string) bool { return strings.Contains(s, sub) }

func TestFamilyVariantsTrackRepresentative(t *testing.T) {
	// §4.1: "Performance comparison result of one model is similar to its
	// variants of the same family." Within the ResNet family, tuned
	// latency must be ordered by depth on every platform.
	artifacts()
	for _, p := range sim.Platforms() {
		prev := 0.0
		for _, name := range []string{"ResNet18_v1", "ResNet34_v1", "ResNet50_v1", "ResNet101_v1"} {
			m := est.Model(name, p)
			ms := est.TunedConvMs(m, p.GPU).TotalMs
			if ms <= prev {
				t.Errorf("%s: %s (%.2f ms) should cost more than its shallower sibling (%.2f ms)",
					p.Name, name, ms, prev)
			}
			prev = ms
		}
	}
}

func TestExperimentsReportRenders(t *testing.T) {
	artifacts()
	rep := est.ExperimentsReport()
	for _, want := range []string{
		"Table 1", "Table 5", "OpenVINO", "cuDNN",
		"Figure 2", "Figure 3", "CPU-fallback overhead",
		"| ResNet50_v1 |", "unified IR",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
	irL, cuL, clL := IRSizeExperiment()
	if irL <= 0 || irL >= cuL || cuL+clL < 2*irL {
		t.Errorf("IR size experiment inconsistent: %d IR, %d CUDA, %d OpenCL", irL, cuL, clL)
	}
}

// TestExperimentsMDIsCurrent pins EXPERIMENTS.md's generated section, the
// document's head, to what the stack prints today.
func TestExperimentsMDIsCurrent(t *testing.T) {
	artifacts()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(doc), est.ExperimentsReport()) {
		t.Error("EXPERIMENTS.md does not begin with ExperimentsReport(); regenerate its head with go run ./cmd/unigpu-bench -table experiments")
	}
}
