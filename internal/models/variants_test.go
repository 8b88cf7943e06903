package models

import (
	"math"
	"testing"

	"unigpu/internal/graph"
	"unigpu/internal/runtime"
	"unigpu/internal/tensor"
)

// families maps each evaluated representative to the variants of its
// family that Build constructs.
var families = map[string][]string{
	"ResNet50_v1":   {"ResNet18_v1", "ResNet34_v1", "ResNet50_v1", "ResNet101_v1"},
	"MobileNet1.0":  {"MobileNet0.25", "MobileNet0.5", "MobileNet1.0"},
	"SqueezeNet1.0": {"SqueezeNet1.0", "SqueezeNet1.1"},
}

func TestFamilyVariantsBuild(t *testing.T) {
	for rep, variants := range families {
		for _, v := range variants {
			m := Build(v, 224, true)
			if err := m.Graph.Validate(); err != nil {
				t.Errorf("%s (family %s): %v", v, rep, err)
			}
			if len(m.Convs) == 0 {
				t.Errorf("%s: no conv workloads", v)
			}
		}
	}
}

func TestResNetFamilyOrdering(t *testing.T) {
	// Deeper variants must cost more; published MAC counts (x2 flops):
	// 18: ~3.6G, 34: ~7.3G, 50: ~8.2G, 101: ~15.6G.
	wants := map[string][2]float64{
		"ResNet18_v1":  {3.0, 4.5},
		"ResNet34_v1":  {6.5, 8.2},
		"ResNet50_v1":  {7.0, 9.0},
		"ResNet101_v1": {14.0, 17.5},
	}
	prev := 0.0
	for _, name := range families["ResNet50_v1"] {
		m := Build(name, 224, true)
		gf := convFLOPs(m) / 1e9
		w := wants[name]
		if gf < w[0] || gf > w[1] {
			t.Errorf("%s: %.2f GFLOPs outside [%v, %v]", name, gf, w[0], w[1])
		}
		if gf <= prev {
			t.Errorf("%s: family must be ordered by depth (%.2f <= %.2f)", name, gf, prev)
		}
		prev = gf
	}
}

func TestMobileNetWidthMultiplier(t *testing.T) {
	full := convFLOPs(Build("MobileNet1.0", 224, true))
	half := convFLOPs(Build("MobileNet0.5", 224, true))
	quarter := convFLOPs(Build("MobileNet0.25", 224, true))
	if !(quarter < half && half < full) {
		t.Fatalf("width multiplier must shrink compute: %.2e %.2e %.2e", quarter, half, full)
	}
	// The 0.5 variant is roughly a quarter of the compute (alpha^2 on the
	// pointwise convs dominates).
	if r := half / full; r < 0.2 || r > 0.4 {
		t.Fatalf("MobileNet0.5 / 1.0 flops ratio = %.2f, expected ~0.25-0.3", r)
	}
}

func TestSqueezeNet11LighterThan10(t *testing.T) {
	v10 := convFLOPs(Build("SqueezeNet1.0", 224, true))
	v11 := convFLOPs(Build("SqueezeNet1.1", 224, true))
	if r := v11 / v10; r > 0.6 {
		t.Fatalf("SqueezeNet1.1 should be ~2.4x lighter, ratio %.2f", r)
	}
}

func TestVariantsExecuteFunctionally(t *testing.T) {
	for _, name := range []string{"ResNet18_v1", "MobileNet0.25", "SqueezeNet1.1"} {
		m := Build(name, 64, false)
		graph.Optimize(m.Graph)
		feed := tensor.New(1, 3, 64, 64)
		feed.FillRandom(5)
		res, err := runtime.Execute(m.Graph, map[string]*tensor.Tensor{"data": feed})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sum float64
		for _, v := range res.Outputs[0].Data() {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Fatalf("%s: softmax sums to %v", name, sum)
		}
	}
}

func TestUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown model should panic")
		}
	}()
	Build("ResNet152_v1", 224, true)
}
