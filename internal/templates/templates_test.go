package templates_test

import (
	"testing"

	"unigpu/internal/exec"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
	"unigpu/internal/templates"
	"unigpu/internal/tensor"
)

// checkConfig executes a lowered conv kernel and compares against ops.Conv2DInto.
func checkConfig(t *testing.T, w ops.ConvWorkload, cfg templates.Config, d *sim.Device) {
	t.Helper()
	k := templates.Schedule(w, cfg, d)

	in := tensor.New(w.N, w.CIn, w.H, w.W)
	in.FillRandom(31)
	g := max(1, w.Groups)
	weight := tensor.New(w.COut, w.CIn/g, w.KH, w.KW)
	weight.FillRandom(32)
	want := tensor.New(w.N, w.COut, w.OutH(), w.OutW())
	ops.Conv2DInto(want, in, weight, nil, w)

	env := exec.NewEnv()
	env.Bind("data", in.Data())
	env.Bind("weight", weight.Data())
	out := make([]float32, want.Size())
	env.Bind("out", out)
	if err := exec.RunKernel(k, env); err != nil {
		t.Fatalf("cfg %v: %v", cfg, err)
	}
	got := tensor.FromData(out, want.Shape()...)
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("cfg %v on %s: max diff %g", cfg, d.Name, tensor.MaxAbsDiff(got, want))
	}
}

var smallConv = ops.ConvWorkload{
	N: 1, CIn: 4, H: 10, W: 10, COut: 8, KH: 3, KW: 3,
	StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
}

var smallDepthwise = ops.ConvWorkload{
	N: 1, CIn: 6, H: 9, W: 9, COut: 6, KH: 3, KW: 3,
	StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 6,
}

func TestDefaultConfigCorrect(t *testing.T) {
	checkConfig(t, smallConv, templates.DefaultConfig(), sim.MaxwellNano)
	checkConfig(t, smallDepthwise, templates.DefaultConfig(), sim.MaxwellNano)
}

func TestManyConfigsCorrectOnAllDevices(t *testing.T) {
	// Sample the space broadly: every lowered schedule must compute the
	// same convolution.
	for _, d := range []*sim.Device{sim.IntelHD505, sim.MaliT860, sim.MaxwellNano} {
		space := templates.ConfigSpace(smallConv, d)
		if len(space) < 20 {
			t.Fatalf("%s: space too small (%d)", d.Name, len(space))
		}
		step := len(space) / 12
		for i := 0; i < len(space); i += step {
			checkConfig(t, smallConv, space[i], d)
		}
	}
}

func TestDepthwiseConfigsCorrect(t *testing.T) {
	space := templates.ConfigSpace(smallDepthwise, sim.MaliT860)
	step := max(1, len(space)/8)
	for i := 0; i < len(space); i += step {
		checkConfig(t, smallDepthwise, space[i], sim.MaliT860)
	}
}

func TestStridedConvCorrect(t *testing.T) {
	w := ops.ConvWorkload{N: 1, CIn: 3, H: 11, W: 11, COut: 4, KH: 3, KW: 3,
		StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	checkConfig(t, w, templates.Config{TileCo: 4, TileH: 2, TileW: 2, VecW: 2, TileK: 1, UnrollKernel: true}, sim.MaxwellNano)
}

func TestSubgroupConfigOnlyOnIntel(t *testing.T) {
	spaceIntel := templates.ConfigSpace(smallConv, sim.IntelHD505)
	spaceMali := templates.ConfigSpace(smallConv, sim.MaliT860)
	hasSG := func(cs []templates.Config) bool {
		for _, c := range cs {
			if c.UseSubgroup {
				return true
			}
		}
		return false
	}
	if !hasSG(spaceIntel) {
		t.Fatal("Intel space should include subgroup configs")
	}
	if hasSG(spaceMali) {
		t.Fatal("Mali space must not include subgroup configs")
	}
	// And subgroup schedules are still correct.
	checkConfig(t, smallConv, templates.Config{TileCo: 8, TileH: 1, TileW: 2, VecW: 1, TileK: 1, UseSubgroup: true}, sim.IntelHD505)
}

func TestTunedConfigBeatsDefaultCost(t *testing.T) {
	w := ops.ConvWorkload{N: 1, CIn: 64, H: 56, W: 56, COut: 64, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	for _, d := range []*sim.Device{sim.IntelHD505, sim.MaliT860, sim.MaxwellNano} {
		def := templates.CostMs(w, templates.DefaultConfig(), d)
		best := def
		space := templates.ConfigSpace(w, d)
		for i := 0; i < len(space); i += 7 {
			if c := templates.CostMs(w, space[i], d); c < best {
				best = c
			}
		}
		if best >= def {
			t.Errorf("%s: no config beats the default (%.3f ms)", d.Name, def)
		}
		if def/best < 1.5 {
			t.Errorf("%s: tuning headroom only %.2fx", d.Name, def/best)
		}
	}
}

func TestConfigSpacePruning(t *testing.T) {
	tiny := ops.ConvWorkload{N: 1, CIn: 2, H: 3, W: 3, COut: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	for _, c := range templates.ConfigSpace(tiny, sim.MaxwellNano) {
		if c.TileCo > 2 || c.TileH > 3 || c.TileW > 3 {
			t.Fatalf("config %v exceeds workload bounds", c)
		}
		if c.VecW > c.TileW || c.TileW%c.VecW != 0 {
			t.Fatalf("config %v has invalid vector split", c)
		}
	}
}
