package unigpu

import (
	"slices"
	"testing"

	"unigpu/internal/graph"
	"unigpu/internal/ops"
)

// TestChannelRoutineSelection pins which convs of the benchmark's model
// configurations a plan runs over output channels (ops' channel routine,
// for direct convs over planes too short for the row kernel's vectors): on
// every paper platform, exactly SSD_MobileNet@96's seven convs with a 1x1
// output, and none of the convs of the models the other workloads serve,
// whose short planes are GEMM or depthwise. Their labels stay the
// selector's.
func TestChannelRoutineSelection(t *testing.T) {
	cases := []struct {
		model, dtype string
		size         int
		want         []string
	}{
		{"SSD_MobileNet1.0", "", 96, []string{"extra_dn_2_bn", "extra_sq_3_bn", "extra_dn_3_bn", "cls_head_5", "loc_head_5", "cls_head_6", "loc_head_6"}},
		{"ResNet50_v1", "", 64, nil},
		{"MobileNet1.0", "fp16", 64, nil},
		{"MobileNet1.0", "int8", 64, nil},
		{"SqueezeNet1.0", "", 64, nil},
	}
	eng := NewEngine()
	for _, p := range Platforms() {
		for _, c := range cases {
			cm, err := eng.Compile(c.model, p, CompileOptions{InputSize: c.size, DType: c.dtype, SkipTuning: true, FallbackNMS: true})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, n := range cm.model.Graph.Nodes {
				op, ok := n.Op.(*graph.ConvOp)
				if !ok || !n.Inputs[1].IsConstant() {
					continue
				}
				pc := ops.PrepareConvDType(op.W, op.Kernel, n.Inputs[1].Value, op.DType)
				if !pc.ChannelRoutine() {
					continue
				}
				got = append(got, n.Name)
				if op.W.OutH()*op.W.OutW() != 1 || pc.Kernel() != ops.KernelDirect {
					t.Errorf("%s on %s: %s (%s, %v) takes the channel routine", c.model, p.Name, n.Name, op.W.Key(), pc.Kernel())
				}
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("%s %s on %s: channel routine runs %v, want %v", c.model, c.dtype, p.Name, got, c.want)
			}
		}
	}
}
