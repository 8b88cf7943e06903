package bench

import (
	"fmt"
	"strings"

	"unigpu/internal/baselines"
	"unigpu/internal/price"
	"unigpu/internal/sim"
)

// Row is one line of a Tables 1-3 comparison.
type Row struct {
	Model      string
	OursMs     float64
	BaselineMs float64
	Supported  bool // baseline coverage (OpenVINO lacks detection)
	Speedup    float64
}

// Table is one overall-performance table (1, 2 or 3).
type Table struct {
	Number   int
	Platform *sim.Platform
	Baseline string
	Rows     []Row
}

// OverallTable regenerates Table 1 (DeepLens vs OpenVINO), Table 2 (aiSage
// vs ACL) or Table 3 (Jetson Nano vs cuDNN).
func (e *Estimator) OverallTable(num int) Table {
	if num < 1 || num > 3 {
		panic("bench: tables 1-3 only")
	}
	p := sim.Platforms()[num-1]
	prof := baselines.ForPlatform(p)
	t := Table{Number: num, Platform: p, Baseline: prof.Name}
	for _, name := range modelOrder {
		ours := e.OursMs(name, p, true, true)
		m := e.Model(name, p)
		base, ok := prof.ModelMs(m)
		r := Row{Model: name, OursMs: ours, BaselineMs: base, Supported: ok}
		if ok {
			r.Speedup = base / ours
		}
		t.Rows = append(t.Rows, r)
	}
	return t
}

var modelOrder = []string{"ResNet50_v1", "MobileNet1.0", "SqueezeNet1.0",
	"SSD_MobileNet1.0", "SSD_ResNet50", "Yolov3"}

// AblationRow is one line of Tables 4-5.
type AblationRow struct {
	Device   string
	Model    string
	BeforeMs float64
	AfterMs  float64
	Speedup  float64
}

// VisionAblation regenerates Table 4: detection models with and without
// the §3.1 vision-specific operator optimizations, per device.
func (e *Estimator) VisionAblation() []AblationRow {
	return e.ablation(modelOrder[3:], func(name string, p *sim.Platform, on bool) float64 {
		return e.OursMs(name, p, true, on)
	})
}

// TuningAblation regenerates Table 5: classification models with default
// vs searched convolution schedules, per device.
func (e *Estimator) TuningAblation() []AblationRow {
	return e.ablation(modelOrder[:3], func(name string, p *sim.Platform, on bool) float64 {
		return e.OursMs(name, p, on, true)
	})
}

// ablation prices each model on each platform with one optimization off
// (before) and on (after).
func (e *Estimator) ablation(names []string, ms func(name string, p *sim.Platform, on bool) float64) []AblationRow {
	var rows []AblationRow
	for _, p := range sim.Platforms() {
		for _, name := range names {
			before, after := ms(name, p, false), ms(name, p, true)
			rows = append(rows, AblationRow{
				Device: p.Name, Model: name,
				BeforeMs: before, AfterMs: after, Speedup: before / after,
			})
		}
	}
	return rows
}

// FallbackResult is the §3.1.2 experiment: SSD_ResNet50 on DeepLens, all
// on the integrated GPU vs NMS fallen back to the CPU.
type FallbackResult struct {
	AllGPUMs    float64
	FallbackMs  float64
	OverheadPct float64
}

// FallbackExperiment reproduces the paper's fallback overhead measurement
// (1010.23 ms vs 1015.14 ms, <0.5% overhead).
func (e *Estimator) FallbackExperiment() FallbackResult {
	p := sim.DeepLens
	m := e.Model("SSD_ResNet50", p)
	all := e.Price(m, p, true, price.Optimized).TotalMs
	fb := e.Price(m, p, true, price.Fallback).TotalMs
	return FallbackResult{
		AllGPUMs:    all,
		FallbackMs:  fb,
		OverheadPct: (fb - all) / all * 100,
	}
}

// Rendering -------------------------------------------------------------

// Format renders a table in the paper's layout.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %d: ours vs %s on %s\n", t.Number, t.Baseline, t.Platform.Name)
	fmt.Fprintf(&b, "%-18s %12s %14s %9s\n", "Models", "Ours (ms)", t.Baseline+" (ms)", "Speedup")
	for _, r := range t.Rows {
		if r.Supported {
			fmt.Fprintf(&b, "%-18s %12.2f %14.2f %9.2f\n", r.Model, r.OursMs, r.BaselineMs, r.Speedup)
		} else {
			fmt.Fprintf(&b, "%-18s %12.2f %14s %9s\n", r.Model, r.OursMs, "—", "—")
		}
	}
	return b.String()
}

// FormatAblation renders Tables 4-5.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "%-22s %-18s %12s %12s %9s\n", "Devices", "Models", "Before (ms)", "After (ms)", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-18s %12.2f %12.2f %9.2f\n", r.Device, r.Model, r.BeforeMs, r.AfterMs, r.Speedup)
	}
	return b.String()
}
