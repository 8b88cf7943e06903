package vision

import (
	"math"

	"unigpu/internal/tensor"
)

// MultiboxPrior generates SSD anchor (prior) boxes for one feature map of
// size fh×fw: one box per (size, first ratio) pair plus one per extra
// ratio, centered on every cell, in normalized corner coordinates.
// Output shape: (1, fh*fw*numAnchors, 4).
func MultiboxPrior(fh, fw int, sizes, ratios []float32) *tensor.Tensor {
	numAnchors := len(sizes) + len(ratios) - 1
	out := tensor.New(1, fh*fw*numAnchors, 4)
	idx := 0
	for y := 0; y < fh; y++ {
		cy := (float32(y) + 0.5) / float32(fh)
		for x := 0; x < fw; x++ {
			cx := (float32(x) + 0.5) / float32(fw)
			emit := func(w, h float32) {
				out.Set(cx-w/2, 0, idx, 0)
				out.Set(cy-h/2, 0, idx, 1)
				out.Set(cx+w/2, 0, idx, 2)
				out.Set(cy+h/2, 0, idx, 3)
				idx++
			}
			// First ratio with every size.
			r0 := float32(math.Sqrt(float64(ratios[0])))
			for _, s := range sizes {
				emit(s*r0, s/r0)
			}
			// Remaining ratios with the first size.
			for _, r := range ratios[1:] {
				rs := float32(math.Sqrt(float64(r)))
				emit(sizes[0]*rs, sizes[0]/rs)
			}
		}
	}
	return out
}

// MultiboxDetection decodes SSD predictions into detections and applies
// NMS into out, (batch, numAnchors, 6). clsProb is (batch, numClasses,
// numAnchors) with class 0 = background; locPred is (batch, numAnchors*4)
// center-offset regressions; anchors is (1, numAnchors, 4) corner boxes.
// Variances follow the SSD convention (0.1, 0.1, 0.2, 0.2).
func MultiboxDetection(out, clsProb, locPred, anchors *tensor.Tensor, cfg NMSConfig) {
	s := clsProb.Shape()
	batch, numClasses, numAnchors := s[0], s[1], s[2]
	dets := tensor.New(batch, numAnchors, DetWidth)
	for b := 0; b < batch; b++ {
		for a := 0; a < numAnchors; a++ {
			// Pick the best foreground class.
			bestCls, bestScore := -1, float32(0)
			for c := 1; c < numClasses; c++ {
				if p := clsProb.GetF((b*numClasses+c)*numAnchors + a); p > bestScore {
					bestScore = p
					bestCls = c - 1
				}
			}
			ba := b*numAnchors + a // the anchor's row of locPred and of dets
			box := DecodeBox(
				[4]float32{anchors.GetF(a * 4), anchors.GetF(a*4 + 1), anchors.GetF(a*4 + 2), anchors.GetF(a*4 + 3)},
				[4]float32{locPred.GetF(ba * 4), locPred.GetF(ba*4 + 1), locPred.GetF(ba*4 + 2), locPred.GetF(ba*4 + 3)},
			)
			dets.SetF(ba*DetWidth, float32(bestCls))
			dets.SetF(ba*DetWidth+1, bestScore)
			for k, v := range box {
				dets.SetF(ba*DetWidth+2+k, v)
			}
		}
	}
	BoxNMS(out, dets, cfg)
}

// DecodeBox applies SSD center-variance decoding of a location regression
// against its anchor, returning a corner-format box.
func DecodeBox(anchor, loc [4]float32) [4]float32 {
	const vx, vy, vw, vh = 0.1, 0.1, 0.2, 0.2
	aw := anchor[2] - anchor[0]
	ah := anchor[3] - anchor[1]
	acx := anchor[0] + aw/2
	acy := anchor[1] + ah/2
	cx := loc[0]*vx*aw + acx
	cy := loc[1]*vy*ah + acy
	w := float32(math.Exp(float64(loc[2]*vw))) * aw
	h := float32(math.Exp(float64(loc[3]*vh))) * ah
	return [4]float32{cx - w/2, cy - h/2, cx + w/2, cy + h/2}
}

// YoloDecode turns one YOLOv3 detection head output (batch,
// anchors*(5+classes), gh, gw) into raw detections in out, (batch,
// gh*gw*anchors, 6). anchorsWH are the head's anchor sizes in input
// pixels; stride is the input-to-grid downsampling.
func YoloDecode(out, feat *tensor.Tensor, anchorsWH [][2]float32, numClasses, stride int) {
	s := feat.Shape()
	batch, gh, gw := s[0], s[2], s[3]
	na := len(anchorsWH)
	attrs := 5 + numClasses
	sig := func(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }
	plane, r := gh*gw, 0 // r: the next output row's offset
	for b := 0; b < batch; b++ {
		for y := 0; y < gh; y++ {
			for x := 0; x < gw; x++ {
				for a := 0; a < na; a++ {
					o := (b*s[1]+a*attrs)*plane + y*gw + x // attribute j of the anchor at o + j*plane
					tx, ty := sig(feat.GetF(o)), sig(feat.GetF(o+plane))
					tw, th, obj := feat.GetF(o+2*plane), feat.GetF(o+3*plane), sig(feat.GetF(o+4*plane))
					bestCls, bestP := 0, float32(0)
					for c := 0; c < numClasses; c++ {
						if p := sig(feat.GetF(o + (5+c)*plane)); p > bestP {
							bestP = p
							bestCls = c
						}
					}
					cx := (float32(x) + tx) * float32(stride)
					cy := (float32(y) + ty) * float32(stride)
					bw := anchorsWH[a][0] * float32(math.Exp(float64(tw)))
					bh := anchorsWH[a][1] * float32(math.Exp(float64(th)))
					for k, v := range [DetWidth]float32{float32(bestCls), obj * bestP, cx - bw/2, cy - bh/2, cx + bw/2, cy + bh/2} {
						out.SetF(r+k, v)
					}
					r += DetWidth
				}
			}
		}
	}
}
