package models

import (
	"math"
	"testing"

	"unigpu/internal/graph"
	"unigpu/internal/runtime"
	"unigpu/internal/tensor"
)

func TestAllModelsBuildAndValidate(t *testing.T) {
	for _, name := range Names() {
		m := Build(name, DefaultInputSize(name), true)
		if err := m.Graph.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(m.Convs) == 0 {
			t.Errorf("%s: no conv workloads", name)
		}
		if m.IsDetection() != (m.Vision != nil) {
			t.Errorf("%s: detection flag inconsistent", name)
		}
	}
}

// convFLOPs sums the model's convolution work.
func convFLOPs(m *Model) float64 {
	var t float64
	for _, w := range m.Convs {
		t += w.FLOPs()
	}
	return t
}

func TestResNet50Architecture(t *testing.T) {
	m := Build("ResNet50_v1", 224, true)
	// 1 stem + 16 blocks * 3 + 4 projections + 1 fc = 54 conv workloads.
	if len(m.Convs) != 54 {
		t.Fatalf("ResNet50 conv count = %d, want 54", len(m.Convs))
	}
	// ~4.1 GMACs per sample at 224, counted as 2 flops per MAC.
	gf := convFLOPs(m) / 1e9
	if gf < 7.0 || gf > 9.0 {
		t.Fatalf("ResNet50 FLOPs = %.2f G, expected ~8.2 G", gf)
	}
	// Stem is 7x7/2 at 64 channels.
	stem := m.Convs[0]
	if stem.KH != 7 || stem.StrideH != 2 || stem.COut != 64 {
		t.Fatalf("stem = %+v", stem)
	}
}

func TestMobileNetArchitecture(t *testing.T) {
	m := Build("MobileNet1.0", 224, true)
	// stem + 13*(dw+pw) + fc = 28.
	if len(m.Convs) != 28 {
		t.Fatalf("MobileNet conv count = %d, want 28", len(m.Convs))
	}
	gf := convFLOPs(m) / 1e9
	if gf < 0.9 || gf > 1.5 {
		t.Fatalf("MobileNet FLOPs = %.2f G, expected ~1.1 G (2x MACs)", gf)
	}
	depthwise := 0
	for _, w := range m.Convs {
		if w.IsDepthwise() {
			depthwise++
		}
	}
	if depthwise != 13 {
		t.Fatalf("depthwise convs = %d, want 13", depthwise)
	}
}

func TestSqueezeNetArchitecture(t *testing.T) {
	m := Build("SqueezeNet1.0", 224, true)
	// stem + 8 fires * 3 + conv10 = 26.
	if len(m.Convs) != 26 {
		t.Fatalf("SqueezeNet conv count = %d, want 26", len(m.Convs))
	}
	gf := convFLOPs(m) / 1e9
	if gf < 1.0 || gf > 2.6 {
		t.Fatalf("SqueezeNet FLOPs = %.2f G, expected ~1.7 G (2x MACs)", gf)
	}
}

func TestSSDArchitectures(t *testing.T) {
	ssd := Build("SSD_ResNet50", 512, true)
	if ssd.Vision == nil {
		t.Fatal("SSD must have a vision profile")
	}
	// SSD512 generates tens of thousands of candidate boxes.
	if ssd.Vision.Boxes < 15000 || ssd.Vision.Boxes > 40000 {
		t.Fatalf("SSD512 boxes = %d", ssd.Vision.Boxes)
	}
	// aiSage variant at 300 produces far fewer.
	small := Build("SSD_ResNet50", 300, true)
	if small.Vision.Boxes >= ssd.Vision.Boxes {
		t.Fatal("300x300 SSD must have fewer boxes than 512x512")
	}
	mb := Build("SSD_MobileNet1.0", 512, true)
	if convFLOPs(mb) >= convFLOPs(ssd) {
		t.Fatal("SSD-MobileNet must be lighter than SSD-ResNet50")
	}
}

func TestYoloV3Architecture(t *testing.T) {
	m := Build("Yolov3", 416, true)
	// Darknet-53 has 52 convs; three heads add 6+1 each plus routes.
	if len(m.Convs) < 70 || len(m.Convs) > 85 {
		t.Fatalf("YOLOv3 conv count = %d", len(m.Convs))
	}
	// (13^2 + 26^2 + 52^2) * 3 = 10647 boxes.
	if m.Vision.Boxes != 10647 {
		t.Fatalf("YOLOv3 boxes = %d, want 10647", m.Vision.Boxes)
	}
	gf := convFLOPs(m) / 1e9
	if gf < 45 || gf > 90 {
		t.Fatalf("YOLOv3 FLOPs = %.1f G, expected ~66 G (2x MACs)", gf)
	}
}

func TestBuildReturnsFreshInstances(t *testing.T) {
	// Passes mutate graphs in place, so two builds must never alias.
	a := Build("ResNet50_v1", 224, true)
	b := Build("ResNet50_v1", 224, true)
	if a == b || a.Graph == b.Graph {
		t.Fatal("Build must return fresh instances")
	}
	if len(a.Convs) != len(b.Convs) {
		t.Fatal("builds must be deterministic")
	}
}

// Functional smoke tests at reduced input size: graphs execute end to end
// and produce sane outputs.

func TestClassificationModelsExecute(t *testing.T) {
	for _, name := range Names()[:3] {
		m := Build(name, 64, false)
		graph.Optimize(m.Graph)
		feed := tensor.New(1, 3, 64, 64)
		feed.FillRandom(42)
		res, err := runtime.Execute(m.Graph, map[string]*tensor.Tensor{"data": feed})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := res.Outputs[0]
		if out.Shape()[len(out.Shape())-1] != 1000 {
			t.Fatalf("%s: output shape %v", name, out.Shape())
		}
		var sum float64
		for _, v := range out.Data() {
			if math.IsNaN(float64(v)) {
				t.Fatalf("%s: NaN in output", name)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Fatalf("%s: softmax sums to %v", name, sum)
		}
	}
}

func TestSSDExecutesAtReducedSize(t *testing.T) {
	m := Build("SSD_MobileNet1.0", 128, false)
	graph.Optimize(m.Graph)
	feed := tensor.New(1, 3, 128, 128)
	feed.FillRandom(9)
	res, err := runtime.Execute(m.Graph, map[string]*tensor.Tensor{"data": feed})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[0]
	if out.Shape()[2] != 6 {
		t.Fatalf("detection width = %d", out.Shape()[2])
	}
	// Scores are in [0, 1] and sorted descending among valid rows.
	prev := float32(2)
	for i := 0; i < out.Shape()[1]; i++ {
		if out.At(0, i, 0) < 0 {
			break
		}
		sc := out.At(0, i, 1)
		if sc < 0 || sc > 1 || sc > prev {
			t.Fatalf("row %d: score %v (prev %v)", i, sc, prev)
		}
		prev = sc
	}
}

func TestYoloExecutesAtReducedSize(t *testing.T) {
	m := Build("Yolov3", 96, false)
	graph.Optimize(m.Graph)
	feed := tensor.New(1, 3, 96, 96)
	feed.FillRandom(11)
	res, err := runtime.Execute(m.Graph, map[string]*tensor.Tensor{"data": feed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0].Shape()[2] != 6 {
		t.Fatalf("yolo output shape %v", res.Outputs[0].Shape())
	}
}

func TestOptimizePassesShrinkDetectionGraphs(t *testing.T) {
	m := Build("SSD_MobileNet1.0", 128, false)
	before := len(m.Graph.OpNodes())
	graph.Optimize(m.Graph)
	after := len(m.Graph.OpNodes())
	if after >= before {
		t.Fatalf("optimization should remove nodes: %d -> %d", before, after)
	}
	for _, n := range m.Graph.OpNodes() {
		if n.Op.Kind() == "batch_norm" {
			t.Fatal("batch norms must all fold")
		}
	}
}
