package vision

import "unigpu/internal/tensor"

// The references below are what this package's tests hold the operators
// to; nothing outside the tests calls them.

// Argsort sorts one flat array, returning source indices; the single-
// segment case of SegmentedArgsort.
func Argsort(data []float32, descending bool) []int32 {
	return SegmentedArgsort(data, NewEvenSegments(len(data)), descending)
}

// SequentialNMS is the straightforward CPU reference the property tests
// hold BoxNMS to: greedy per-batch suppression with an explicit
// per-segment sort.
func SequentialNMS(dets *tensor.Tensor, cfg NMSConfig) *tensor.Tensor {
	s := dets.Shape()
	batch, num := s[0], s[1]
	out := tensor.New(batch, num, DetWidth)
	for i := 0; i < batch*num; i++ {
		out.Data()[i*DetWidth] = -1
	}
	for b := 0; b < batch; b++ {
		scores := make([]float32, num)
		for i := range scores {
			scores[i] = dets.GetF((b*num+i)*DetWidth + 1)
		}
		order := NaiveSegmentedArgsort(scores, NewEvenSegments(num), true)
		ord := make([]int32, num)
		for i, o := range order {
			ord[i] = o + int32(b*num)
		}
		nmsOneBatch(dets, out, ord, b, num, cfg)
	}
	return out
}

// SequentialScan is the trivial CPU reference (§3.1.1: "a trivial
// sequential algorithm on the CPU").
func SequentialScan(data []float32) []float32 {
	out := make([]float32, len(data))
	var acc float32
	for i, v := range data {
		acc += v
		out[i] = acc
	}
	return out
}
