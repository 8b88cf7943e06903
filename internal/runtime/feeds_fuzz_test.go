package runtime

import (
	"testing"

	"unigpu/internal/graph"
	"unigpu/internal/tensor"
)

// FuzzSessionFeeds feeds a two-input plan (a and b, each 2x3, summed)
// fuzzed feeds: input a gets a generated rank, dims and dtype or a nil
// tensor, b may be missing, and an extra feed may ride along. Run must
// never panic, must succeed exactly when every input is fed a float32
// tensor of its shape (an extra feed is ignored), and must otherwise
// return the error validateFeeds names for those feeds.
func FuzzSessionFeeds(f *testing.F) {
	g := graph.New()
	a, b := g.Input("a", 2, 3), g.Input("b", 2, 3)
	g.SetOutputs(g.Apply("sum", &graph.AddOp{}, a, b))
	plan, err := NewPlan(g)
	if err != nil {
		f.Fatal(err)
	}
	s := plan.NewSession()
	// rank, d0, d1, d2, dtype, nil a, missing b, extra feed
	f.Add(uint8(2), uint8(2), uint8(3), uint8(0), uint8(0), false, false, false) // the plan's inputs
	f.Add(uint8(2), uint8(2), uint8(3), uint8(0), uint8(0), false, false, true)  // and an extra feed
	f.Add(uint8(3), uint8(2), uint8(3), uint8(1), uint8(0), false, false, false) // rank 3
	f.Add(uint8(2), uint8(3), uint8(2), uint8(0), uint8(0), false, false, false) // dims swapped
	f.Add(uint8(2), uint8(2), uint8(3), uint8(0), uint8(1), false, false, false) // fp16
	f.Add(uint8(2), uint8(2), uint8(3), uint8(0), uint8(2), false, false, false) // int8
	f.Add(uint8(2), uint8(2), uint8(3), uint8(0), uint8(0), true, false, false)  // nil a
	f.Add(uint8(2), uint8(2), uint8(3), uint8(0), uint8(0), false, true, false)  // b missing
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false, false, false) // a scalar
	f.Fuzz(func(t *testing.T, rank, d0, d1, d2, dtype uint8, nilA, missingB, extra bool) {
		shape := []int{int(d0 % 5), int(d1 % 5), int(d2 % 5)}[:rank%4]
		var ta *tensor.Tensor
		if !nilA {
			ta = tensor.New(shape...)
			switch dtype % 3 {
			case 1:
				ta = tensor.Convert(ta, tensor.Float16, 0)
			case 2:
				ta = tensor.Convert(ta, tensor.Int8, 1)
			}
		}
		feeds := map[string]*tensor.Tensor{"a": ta}
		if !missingB {
			feeds["b"] = tensor.New(2, 3)
		}
		if extra {
			feeds["extra"] = tensor.New(1)
		}
		match := ta != nil && ta.Shape().Equal(tensor.Shape{2, 3}) && ta.DType() == tensor.Float32 && !missingB
		_, err := s.Run(feeds)
		switch {
		case match && err != nil:
			t.Fatalf("feeds match the plan's inputs, Run failed: %v", err)
		case !match && err == nil:
			t.Fatalf("feeds %v do not match the plan's inputs, Run succeeded", feeds)
		case !match && err.Error() != plan.validateFeeds(feeds).Error():
			t.Fatalf("Run returned %q, validateFeeds names %q", err, plan.validateFeeds(feeds))
		}
	})
}
