package vision

import (
	"unigpu/internal/tensor"
)

// Detection layout used throughout: each row is
// [class_id, score, x1, y1, x2, y2]; class_id < 0 marks an invalid row.
// This matches MXNet's box_nms convention the paper targets.
const DetWidth = 6

// NMSConfig configures box non-maximum suppression.
type NMSConfig struct {
	IoUThreshold   float32 // overlap above which the lower-scored box dies
	ScoreThreshold float32 // rows below this score are invalid from the start
	TopK           int     // consider only the K highest-scored rows (<=0: all)
	MaxOutput      int     // keep at most this many rows (<=0: all)
}

// IoU computes intersection-over-union of two corner-format boxes.
func IoU(a, b [4]float32) float32 {
	x1 := maxf(a[0], b[0])
	y1 := maxf(a[1], b[1])
	x2 := minf(a[2], b[2])
	y2 := minf(a[3], b[3])
	iw := maxf(0, x2-x1)
	ih := maxf(0, y2-y1)
	inter := iw * ih
	areaA := maxf(0, a[2]-a[0]) * maxf(0, a[3]-a[1])
	areaB := maxf(0, b[2]-b[0]) * maxf(0, b[3]-b[1])
	union := areaA + areaB - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

// BoxNMS suppresses duplicate detections in a (batch, num, 6) tensor into
// out, a tensor of the same shape: surviving rows first (ordered by
// descending score), every other row invalidated (class_id = -1, the rest
// zero). Every element of out is written, so it may be a reused buffer.
//
// This is the optimized formulation of §4.3: all output rows start invalid
// (no comparison-style writes), the candidate order comes from one
// segmented argsort over the whole batch (one kernel, load-balanced), and
// the suppression mask for each accepted box is computed over all later
// candidates in a data-parallel sweep with predicated updates (no
// divergent branching in the inner loop).
func BoxNMS(out, dets *tensor.Tensor, cfg NMSConfig) {
	s := dets.Shape()
	batch, num := s[0], s[1]
	// Initialize all output to invalid, not comparison-by-comparison.
	invalid := [DetWidth]float32{-1}
	for i := 0; i < batch*num; i++ {
		out.StoreF(i*DetWidth, invalid[:])
	}

	// One segmented sort across the whole batch (scores descending).
	scores := make([]float32, batch*num)
	for r := range scores {
		scores[r] = dets.GetF(r*DetWidth + 1)
	}
	sizes := make([]int, batch)
	for b := range sizes {
		sizes[b] = num
	}
	order := SegmentedArgsort(scores, NewEvenSegments(sizes...), true)

	for b := 0; b < batch; b++ {
		nmsOneBatch(dets, out, order[b*num:(b+1)*num], b, num, cfg)
	}
}

func nmsOneBatch(dets, out *tensor.Tensor, order []int32, b, num int, cfg NMSConfig) {
	limit := num
	if cfg.TopK > 0 && cfg.TopK < limit {
		limit = cfg.TopK
	}
	type cand struct {
		cls   float32
		score float32
		box   [4]float32
	}
	cands := make([]cand, 0, limit)
	for _, flat := range order[:limit] {
		r := int(flat) * DetWidth // flat = b*num + i: row i of batch b
		c := cand{
			cls:   dets.GetF(r),
			score: dets.GetF(r + 1),
			box:   [4]float32{dets.GetF(r + 2), dets.GetF(r + 3), dets.GetF(r + 4), dets.GetF(r + 5)},
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
	kept := 0
	maxOut := len(cands)
	if cfg.MaxOutput > 0 && cfg.MaxOutput < maxOut {
		maxOut = cfg.MaxOutput
	}
	for i := 0; i < len(cands) && kept < maxOut; i++ {
		if !alive[i] {
			continue
		}
		c := cands[i]
		r := (b*num + kept) * DetWidth
		out.SetF(r, c.cls)
		out.SetF(r+1, c.score)
		for k, v := range c.box {
			out.SetF(r+2+k, v)
		}
		kept++
		// Predicated parallel suppression sweep over later candidates.
		for j := i + 1; j < len(cands); j++ {
			suppress := cands[j].cls == c.cls && IoU(c.box, cands[j].box) > cfg.IoUThreshold
			alive[j] = alive[j] && !suppress
		}
	}
}
