package vision

import (
	"math"
	"math/rand"
	"testing"

	"unigpu/internal/tensor"
)

// The operators index their tensors flat (GetF/SetF at offsets worked out
// once per row). What follows are the loops they replaced, reading and
// writing every element through the coordinate accessors At/Set, kept as
// the flat versions' bit-for-bit references.

func refBoxNMS(dets *tensor.Tensor, cfg NMSConfig) *tensor.Tensor {
	s := dets.Shape()
	batch, num := s[0], s[1]
	out := tensor.New(batch, num, DetWidth)
	for i := 0; i < batch*num; i++ {
		out.Data()[i*DetWidth] = -1
	}
	scores := make([]float32, batch*num)
	for b := 0; b < batch; b++ {
		for i := 0; i < num; i++ {
			scores[b*num+i] = dets.At(b, i, 1)
		}
	}
	sizes := make([]int, batch)
	for b := range sizes {
		sizes[b] = num
	}
	order := SegmentedArgsort(scores, NewEvenSegments(sizes...), true)
	for b := 0; b < batch; b++ {
		refNMSOneBatch(dets, out, order[b*num:(b+1)*num], b, num, cfg)
	}
	return out
}

func refNMSOneBatch(dets, out *tensor.Tensor, order []int32, b, num int, cfg NMSConfig) {
	limit := num
	if cfg.TopK > 0 && cfg.TopK < limit {
		limit = cfg.TopK
	}
	type cand struct {
		cls, score float32
		box        [4]float32
	}
	var cands []cand
	for _, flat := range order[:limit] {
		i := int(flat) - b*num
		c := cand{
			cls:   dets.At(b, i, 0),
			score: dets.At(b, i, 1),
			box:   [4]float32{dets.At(b, i, 2), dets.At(b, i, 3), dets.At(b, i, 4), dets.At(b, i, 5)},
		}
		if c.cls < 0 || c.score < cfg.ScoreThreshold {
			continue
		}
		cands = append(cands, c)
	}
	alive := make([]bool, len(cands))
	for i := range alive {
		alive[i] = true
	}
	kept, maxOut := 0, len(cands)
	if cfg.MaxOutput > 0 && cfg.MaxOutput < maxOut {
		maxOut = cfg.MaxOutput
	}
	for i := 0; i < len(cands) && kept < maxOut; i++ {
		if !alive[i] {
			continue
		}
		c := cands[i]
		out.Set(c.cls, b, kept, 0)
		out.Set(c.score, b, kept, 1)
		for k := 0; k < 4; k++ {
			out.Set(c.box[k], b, kept, 2+k)
		}
		kept++
		for j := i + 1; j < len(cands); j++ {
			suppress := cands[j].cls == c.cls && IoU(c.box, cands[j].box) > cfg.IoUThreshold
			alive[j] = alive[j] && !suppress
		}
	}
}

// refMultiboxDecode is MultiboxDetection's decode, before its NMS.
func refMultiboxDecode(clsProb, locPred, anchors *tensor.Tensor) *tensor.Tensor {
	s := clsProb.Shape()
	batch, numClasses, numAnchors := s[0], s[1], s[2]
	dets := tensor.New(batch, numAnchors, DetWidth)
	for b := 0; b < batch; b++ {
		for a := 0; a < numAnchors; a++ {
			bestCls, bestScore := -1, float32(0)
			for c := 1; c < numClasses; c++ {
				if p := clsProb.At(b, c, a); p > bestScore {
					bestScore, bestCls = p, c-1
				}
			}
			box := DecodeBox(
				[4]float32{anchors.At(0, a, 0), anchors.At(0, a, 1), anchors.At(0, a, 2), anchors.At(0, a, 3)},
				[4]float32{locPred.At(b, a*4), locPred.At(b, a*4+1), locPred.At(b, a*4+2), locPred.At(b, a*4+3)},
			)
			dets.Set(float32(bestCls), b, a, 0)
			dets.Set(bestScore, b, a, 1)
			for k := 0; k < 4; k++ {
				dets.Set(box[k], b, a, 2+k)
			}
		}
	}
	return dets
}

func refYoloDecode(feat *tensor.Tensor, anchorsWH [][2]float32, numClasses, stride int) *tensor.Tensor {
	s := feat.Shape()
	batch, gh, gw := s[0], s[2], s[3]
	na, attrs := len(anchorsWH), 5+numClasses
	out := tensor.New(batch, gh*gw*na, DetWidth)
	sig := func(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }
	for b := 0; b < batch; b++ {
		idx := 0
		for y := 0; y < gh; y++ {
			for x := 0; x < gw; x++ {
				for a := 0; a < na; a++ {
					ch := a * attrs
					tx, ty := sig(feat.At(b, ch+0, y, x)), sig(feat.At(b, ch+1, y, x))
					tw, th := feat.At(b, ch+2, y, x), feat.At(b, ch+3, y, x)
					obj := sig(feat.At(b, ch+4, y, x))
					bestCls, bestP := 0, float32(0)
					for c := 0; c < numClasses; c++ {
						if p := sig(feat.At(b, ch+5+c, y, x)); p > bestP {
							bestP, bestCls = p, c
						}
					}
					cx, cy := (float32(x)+tx)*float32(stride), (float32(y)+ty)*float32(stride)
					bw := anchorsWH[a][0] * float32(math.Exp(float64(tw)))
					bh := anchorsWH[a][1] * float32(math.Exp(float64(th)))
					out.Set(float32(bestCls), b, idx, 0)
					out.Set(obj*bestP, b, idx, 1)
					out.Set(cx-bw/2, b, idx, 2)
					out.Set(cy-bh/2, b, idx, 3)
					out.Set(cx+bw/2, b, idx, 4)
					out.Set(cy+bh/2, b, idx, 5)
					idx++
				}
			}
		}
	}
	return out
}

// sameBits fails unless got and want agree in shape and every bit.
func sameBits(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape(), want.Shape())
	}
	for i := 0; i < got.Size(); i++ {
		if g, w := got.GetF(i), want.GetF(i); math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, g, w)
		}
	}
}

// randDets fills a (batch, num, 6) detection tensor: a few classes and some
// invalid rows, scores on a coarse grid (so many tie, +0 and -0 among
// them), boxes that overlap often.
func randDets(rng *rand.Rand, batch, num int) *tensor.Tensor {
	dets := tensor.New(batch, num, DetWidth)
	for r := 0; r < batch*num; r++ {
		x, y := rng.Float32()*40, rng.Float32()*40
		score := float32(rng.Intn(12)) / 10
		if score == 0 && rng.Intn(2) == 0 {
			score = float32(math.Copysign(0, -1))
		}
		row := []float32{float32(rng.Intn(4) - 1), score, x, y, x + 1 + rng.Float32()*20, y + 1 + rng.Float32()*20}
		for k, v := range row {
			dets.SetF(r*DetWidth+k, v)
		}
	}
	return dets
}

// carriers returns t and its binary16 copy: the two storage types a
// detection tail reads.
func carriers(t *tensor.Tensor) map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{"fp32": t, "fp16": tensor.Convert(t, tensor.Float16, 0)}
}

func TestFlatNMSMatchesCoordinateLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfgs := []NMSConfig{
		{IoUThreshold: 0.45, ScoreThreshold: 0.01, TopK: 40, MaxOutput: 20},
		{IoUThreshold: 2}, // suppresses nothing: every valid row comes out
	}
	for trial := 0; trial < 12; trial++ {
		batch, num := 1+trial%2, 1+rng.Intn(300)
		for dt, dets := range carriers(randDets(rng, batch, num)) {
			for _, cfg := range cfgs {
				sameBits(t, dt+" BoxNMS", boxNMS(dets, cfg), refBoxNMS(dets, cfg))
			}
		}
	}
}

func TestFlatDecodeMatchesCoordinateLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, batch := range []int{1, 2} {
		numClasses, numAnchors := 5, 90
		cls := tensor.New(batch, numClasses, numAnchors)
		cls.FillFunc(func(int) float32 { return float32(rng.Intn(20)) / 20 })
		loc, anchors := tensor.New(batch, numAnchors*4), tensor.New(1, numAnchors, 4)
		loc.FillRandom(int64(batch))
		anchors.FillFunc(func(i int) float32 { return float32(i%4/2)*0.5 + rng.Float32()*0.4 })
		keepAll := NMSConfig{IoUThreshold: 2}
		for dt, c := range carriers(cls) {
			l, a := carriers(loc)[dt], carriers(anchors)[dt]
			for _, cfg := range []NMSConfig{keepAll, {IoUThreshold: 0.45, ScoreThreshold: 0.1, TopK: 50, MaxOutput: 30}} {
				out := poisoned(batch, numAnchors, DetWidth)
				MultiboxDetection(out, c, l, a, cfg)
				sameBits(t, dt+" MultiboxDetection", out, refBoxNMS(refMultiboxDecode(c, l, a), cfg))
			}
		}
	}
}

func TestFlatYoloDecodeMatchesCoordinateLoops(t *testing.T) {
	anchorsWH := [][2]float32{{10, 14}, {23, 27}, {37, 58}}
	for _, batch := range []int{1, 2} {
		feat := tensor.New(batch, len(anchorsWH)*(5+4), 3, 5)
		feat.FillRandom(int64(40 + batch))
		for dt, f := range carriers(feat) {
			out := poisoned(batch, 3*5*len(anchorsWH), DetWidth)
			YoloDecode(out, f, anchorsWH, 4, 16)
			sameBits(t, dt+" YoloDecode", out, refYoloDecode(f, anchorsWH, 4, 16))
		}
	}
}
