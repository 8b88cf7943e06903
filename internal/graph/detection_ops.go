package graph

import (
	"unigpu/internal/tensor"
	"unigpu/internal/vision"
)

// HeadReshapeOp rearranges one detection-head conv output
// (1, A*K, h, w) into per-anchor rows (1, h*w*A, K), cell-major and
// anchor-minor — the ordering MultiboxPrior emits. This is the
// transpose+flatten the SSD head performs between its convolutions and
// the multibox decoder.
type HeadReshapeOp struct {
	Anchors int // A
	Attrs   int // K
}

func (o *HeadReshapeOp) Kind() string { return "head_reshape" }
func (o *HeadReshapeOp) InferShape(ins []tensor.Shape) tensor.Shape {
	s := ins[0]
	return tensor.Shape{s[0], s[2] * s[3] * o.Anchors, o.Attrs}
}
func (o *HeadReshapeOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	in := ins[0]
	s := in.Shape()
	hw, cell := s[2]*s[3], o.Anchors*o.Attrs // a cell's rows are cell elements of out
	for c := 0; c < s[0]*s[1]; c++ {         // input plane c = (b, a*Attrs+k)
		b, a, k := c/s[1], c%s[1]/o.Attrs, c%o.Attrs
		src, dst := c*hw, (b*hw*o.Anchors+a)*o.Attrs+k
		for p := 0; p < hw; p++ {
			out.SetF(dst+p*cell, in.GetF(src+p))
		}
	}
}
func (o *HeadReshapeOp) GPUFriendly() bool { return true }

// SSDDetectionOp decodes SSD heads given per-anchor rows; inputs:
// clsRows (batch, anchors, classes+1) softmaxed scores with class 0 =
// background, locRows (batch, anchors, 4), anchors (1, anchors, 4).
type SSDDetectionOp struct{ Cfg vision.NMSConfig }

func (o *SSDDetectionOp) Kind() string { return "multibox_detection" }
func (o *SSDDetectionOp) InferShape(ins []tensor.Shape) tensor.Shape {
	return tensor.Shape{ins[0][0], ins[0][1], vision.DetWidth}
}
func (o *SSDDetectionOp) ExecuteInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	clsRows, locRows, anchors := ins[0], ins[1], ins[2]
	s := clsRows.Shape()
	batch, num, k := s[0], s[1], s[2]
	// Transpose rows into the (batch, classes, anchors) layout the vision
	// kernel consumes.
	clsProb := tensor.New(batch, k, num)
	for r := 0; r < batch*num; r++ { // row r = (b, a) to column a of image b
		b, a := r/num, r%num
		for c := 0; c < k; c++ {
			clsProb.SetF((b*k+c)*num+a, clsRows.GetF(r*k+c))
		}
	}
	loc := locRows.Reshape(batch, num*4)
	vision.MultiboxDetection(out, clsProb, loc, anchors, o.Cfg)
}
func (o *SSDDetectionOp) GPUFriendly() bool { return true }
