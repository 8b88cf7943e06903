package unigpu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"unigpu/internal/graph"
	"unigpu/internal/runtime"
	"unigpu/internal/tensor"
)

var updateFrozen = flag.Bool("update-frozen", false,
	"rewrite testdata/frozen_dtype.json from this build's outputs (only ever from a commit whose kernels are the reference)")

const frozenDTypePath = "testdata/frozen_dtype.json"

// hashOutputs digests every output's name, dtype, int8 scale and raw
// storage bits, so one flipped bit anywhere changes the digest.
func hashOutputs(names []string, outs []*tensor.Tensor) string {
	h := sha256.New()
	var b [4]byte
	for i, t := range outs {
		h.Write([]byte(names[i]))
		h.Write([]byte{0, byte(t.DType())})
		switch t.DType() {
		case tensor.Float16:
			for _, v := range t.Half() {
				binary.LittleEndian.PutUint16(b[:2], v)
				h.Write(b[:2])
			}
		case tensor.Int8:
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(t.Scale()))
			h.Write(b[:])
			for _, v := range t.Int8Data() {
				h.Write([]byte{byte(v)})
			}
		default:
			for _, v := range t.Data() {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFrozenDTypeOutputs holds the reduced-precision kernels to the exact
// bits of the commit that froze testdata/frozen_dtype.json (the last one
// with separate fp32/fp16/int8 convolution stacks). Per model and dtype
// two digests are pinned: "final" is the graph output of the ordinary plan
// (arena slots and conv scratch reused), "all" is every operator's output
// with each node pinned as a graph output, so an error that softmax would
// wash out of the final tensor still shows.
func TestFrozenDTypeOutputs(t *testing.T) {
	frozen := map[string]string{}
	if !*updateFrozen {
		raw, err := os.ReadFile(frozenDTypePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &frozen); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	for _, model := range []string{"MobileNet1.0", "SqueezeNet1.0", "ResNet50_v1"} {
		for _, dtype := range []string{"fp16", "int8"} {
			cm, err := NewEngine().Compile(model, DeepLens,
				CompileOptions{InputSize: 32, SkipTuning: true, DType: dtype})
			if err != nil {
				t.Fatalf("compile %s %s: %v", model, dtype, err)
			}
			in := tensor.New(1, 3, 32, 32)
			in.FillRandom(7)
			feeds := map[string]*tensor.Tensor{"data": in}
			g := cm.model.Graph

			digest := func(key string) {
				plan, err := runtime.NewPlan(g)
				if err != nil {
					t.Fatalf("%s: plan: %v", key, err)
				}
				names := make([]string, len(g.Outputs))
				for i, o := range g.Outputs {
					names[i] = o.Name
				}
				outs, err := plan.NewSession().Run(feeds)
				if err != nil {
					t.Fatalf("%s: run: %v", key, err)
				}
				got[key] = hashOutputs(names, outs)
				if want := frozen[key]; !*updateFrozen && want != got[key] {
					t.Errorf("%s: digest %s, frozen %s", key, got[key], want)
				}
			}

			digest(model + "/" + dtype + "/final")
			pinned := map[*graph.Node]bool{}
			for _, o := range g.Outputs {
				pinned[o] = true
			}
			for _, n := range g.OpNodes() {
				if !pinned[n] {
					g.Outputs = append(g.Outputs, n)
				}
			}
			digest(model + "/" + dtype + "/all")
		}
	}
	if *updateFrozen {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(frozenDTypePath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
