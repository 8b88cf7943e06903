package graph

import (
	"math"
	"testing"

	"unigpu/internal/tensor"
	"unigpu/internal/vision"
)

func TestHeadReshapeOrdering(t *testing.T) {
	// (1, A*K, h, w) -> (1, h*w*A, K), cell-major anchor-minor: the exact
	// ordering MultiboxPrior emits.
	a, k, h, w := 2, 3, 2, 2
	op := &HeadReshapeOp{Anchors: a, Attrs: k}
	in := tensor.New(1, a*k, h, w)
	// Value encodes (anchor, attr, y, x) uniquely.
	for ai := 0; ai < a; ai++ {
		for ki := 0; ki < k; ki++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					in.Set(float32(ai*1000+ki*100+y*10+x), 0, ai*k+ki, y, x)
				}
			}
		}
	}
	out := tensor.New(1, h*w*a, k)
	op.ExecuteInto(out, []*tensor.Tensor{in})
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for ai := 0; ai < a; ai++ {
				row := (y*w+x)*a + ai
				for ki := 0; ki < k; ki++ {
					want := float32(ai*1000 + ki*100 + y*10 + x)
					if got := out.At(0, row, ki); got != want {
						t.Fatalf("row %d attr %d = %v, want %v", row, ki, got, want)
					}
				}
			}
		}
	}
	if !op.InferShape([]tensor.Shape{in.Shape()}).Equal(out.Shape()) {
		t.Fatal("InferShape mismatch")
	}
}

func TestSSDDetectionOpMatchesVisionKernel(t *testing.T) {
	// Rows-layout decode must agree with the (classes, anchors) layout
	// vision kernel it adapts.
	numAnchors, numClasses := 4, 3 // incl. background
	clsRows := tensor.New(1, numAnchors, numClasses)
	clsRows.FillFunc(func(i int) float32 { return float32((i*7)%10) / 10 })
	locRows := tensor.New(1, numAnchors, 4)
	locRows.FillRandom(3)
	anchors := tensor.New(1, numAnchors, 4)
	for i := 0; i < numAnchors; i++ {
		anchors.Set(float32(i)*0.2, 0, i, 0)
		anchors.Set(0.1, 0, i, 1)
		anchors.Set(float32(i)*0.2+0.15, 0, i, 2)
		anchors.Set(0.3, 0, i, 3)
	}
	cfg := vision.NMSConfig{IoUThreshold: 0.5, ScoreThreshold: 0.05}
	op := &SSDDetectionOp{Cfg: cfg}
	if !op.InferShape([]tensor.Shape{clsRows.Shape(), locRows.Shape(), anchors.Shape()}).Equal(tensor.Shape{1, numAnchors, vision.DetWidth}) {
		t.Fatal("InferShape mismatch")
	}
	got := tensor.New(1, numAnchors, vision.DetWidth)
	op.ExecuteInto(got, []*tensor.Tensor{clsRows, locRows, anchors})
	sameBits(t, "SSDDetectionOp vs the vision kernel", got, refSSDDetection(op, clsRows, locRows, anchors))
}

func TestDetectionOpsAreGPUFriendly(t *testing.T) {
	// §3.1.1: these are the operators this work makes GPU-resident.
	for _, op := range []Operator{
		&HeadReshapeOp{Anchors: 1, Attrs: 1},
		&SSDDetectionOp{},
		&BoxNMSOp{},
		&YoloDecodeOp{Anchors: [][2]float32{{1, 1}}, NumClasses: 1, Stride: 8},
	} {
		if !op.GPUFriendly() {
			t.Errorf("%s should be GPU friendly in the optimized stack", op.Kind())
		}
	}
}

// refHeadReshape and refSSDDetection are the head rearrangement and the SSD
// class transpose as they were written before they indexed flat: every
// element through the coordinate accessors At/Set. They are the flat
// versions' bit-for-bit references.
func refHeadReshape(o *HeadReshapeOp, out, in *tensor.Tensor) {
	s := in.Shape()
	for b := 0; b < s[0]; b++ {
		for a := 0; a < o.Anchors; a++ {
			for k := 0; k < o.Attrs; k++ {
				for y := 0; y < s[2]; y++ {
					for x := 0; x < s[3]; x++ {
						out.Set(in.At(b, a*o.Attrs+k, y, x), b, (y*s[3]+x)*o.Anchors+a, k)
					}
				}
			}
		}
	}
}

func refSSDDetection(o *SSDDetectionOp, clsRows, locRows, anchors *tensor.Tensor) *tensor.Tensor {
	s := clsRows.Shape()
	batch, num, k := s[0], s[1], s[2]
	clsProb := tensor.New(batch, k, num)
	for b := 0; b < batch; b++ {
		for a := 0; a < num; a++ {
			for c := 0; c < k; c++ {
				clsProb.Set(clsRows.At(b, a, c), b, c, a)
			}
		}
	}
	out := tensor.New(batch, num, vision.DetWidth)
	vision.MultiboxDetection(out, clsProb, locRows.Reshape(batch, num*4), anchors, o.Cfg)
	return out
}

func sameBits(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) || got.DType() != want.DType() {
		t.Fatalf("%s: %v %v, want %v %v", name, got.DType(), got.Shape(), want.DType(), want.Shape())
	}
	for i := 0; i < got.Size(); i++ {
		if g, w := got.GetF(i), want.GetF(i); math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, g, w)
		}
	}
}

// TestFlatDetectionTailMatchesCoordinateLoops: on random heads, batch 1 and
// 2, fp32 and fp16 carriers (in and out), the flat loops give the
// coordinate-indexed ones' bits.
func TestFlatDetectionTailMatchesCoordinateLoops(t *testing.T) {
	dts := []tensor.DType{tensor.Float32, tensor.Float16}
	for _, batch := range []int{1, 2} {
		op := &HeadReshapeOp{Anchors: 3, Attrs: 5}
		in := tensor.New(batch, 15, 3, 2)
		in.FillRandom(int64(batch))
		for _, idt := range dts {
			for _, odt := range dts {
				src := tensor.Convert(in, idt, 0)
				got, want := tensor.NewTyped(odt, batch, 18, 5), tensor.NewTyped(odt, batch, 18, 5)
				op.ExecuteInto(got, []*tensor.Tensor{src})
				refHeadReshape(op, want, src)
				sameBits(t, "head_reshape "+idt.String()+" to "+odt.String(), got, want)
			}
		}

		num, classes := 70, 4
		cls, loc, anchors := tensor.New(batch, num, classes), tensor.New(batch, num, 4), tensor.New(1, num, 4)
		cls.FillFunc(func(i int) float32 { return float32(i*7%11) / 11 })
		loc.FillRandom(int64(10 + batch))
		anchors.FillFunc(func(i int) float32 { return float32(i%num)/float32(num) + float32(i%4/2)*0.3 })
		for _, cfg := range []vision.NMSConfig{{IoUThreshold: 2}, {IoUThreshold: 0.45, ScoreThreshold: 0.01, TopK: 40, MaxOutput: 20}} {
			det := &SSDDetectionOp{Cfg: cfg}
			for _, dt := range dts {
				c, l := tensor.Convert(cls, dt, 0), tensor.Convert(loc, dt, 0)
				got := tensor.New(batch, num, vision.DetWidth)
				det.ExecuteInto(got, []*tensor.Tensor{c, l, anchors})
				sameBits(t, "multibox_detection "+dt.String(), got, refSSDDetection(det, c, l, anchors))
			}
		}
	}
}
