// Package vision implements the vision-specific operators of §3.1 —
// segmented argsort (Figure 2), the three-stage register-blocked prefix sum
// (Figure 3), divergence-free box NMS, multibox prior/detection and YOLO
// box decoding — using the same parallel decompositions the paper lowers
// to integrated GPUs, with the host's worker pool (internal/par) standing
// in for thread blocks. The property tests hold each operator to a
// sequential reference, and internal/vision/cost.go prices the optimized
// and the naive GPU implementations on the simulated devices for the
// Table 4 ablation.
package vision

import (
	"slices"
	"sort"

	"unigpu/internal/par"
)

// Segments describes a flattened batch of variable-length segments:
// segment i occupies [Starts[i], Starts[i+1]) of the flat data array.
// Starts has length numSegments+1.
type Segments struct {
	Starts []int
}

// NumSegments returns the number of segments.
func (s Segments) NumSegments() int { return len(s.Starts) - 1 }

// Len returns the total flattened length.
func (s Segments) Len() int { return s.Starts[len(s.Starts)-1] }

// SegmentOf returns the segment containing flat position p.
func (s Segments) SegmentOf(p int) int {
	// Binary search over starts.
	lo, hi := 0, s.NumSegments()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.Starts[mid] <= p {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// NewEvenSegments builds n segments of the given sizes.
func NewEvenSegments(sizes ...int) Segments {
	starts := make([]int, len(sizes)+1)
	for i, sz := range sizes {
		starts[i+1] = starts[i] + sz
	}
	return Segments{Starts: starts}
}

type keyed struct {
	key float32
	seg int32
	idx int32 // original flat position
}

// SegmentedArgsort sorts every segment of the flattened array independently
// (descending by default, as NMS consumes scores), returning for each flat
// position the original index of the element now stored there.
//
// The implementation follows Figure 2: the data is already flat; it is
// chopped into equal-size blocks (not per-segment pieces), each block is
// sorted locally in parallel ("block sorting"), and then cooperative merge
// rounds double the merged width until the whole array is ordered. Segment
// identity is the major sort key, so segments — contiguous in the flat
// array — never interleave, and only blocks spanning an active interface
// between two runs do comparison work in a merge round.
func SegmentedArgsort(data []float32, segs Segments, descending bool) []int32 {
	n := segs.Len()
	if n != len(data) {
		panic("vision: segment starts do not cover the data")
	}
	items := make([]keyed, n)
	for i := range items {
		items[i] = keyed{key: data[i], seg: int32(segs.SegmentOf(i)), idx: int32(i)}
	}
	cmp := compareFn(descending)

	// Block sorting: one "thread block" per chunk, in parallel.
	par.For((n+sortBlock-1)/sortBlock, blockSortJob{items, cmp})

	// Cooperative merge: coop 2, coop 4, ... (Figure 2). Each round merges
	// adjacent sorted runs of `width` blocks; runs whose interface is
	// already ordered are skipped (the "active interface" optimization).
	buf := make([]keyed, n)
	for width := sortBlock; width < n; width *= 2 {
		par.For((n+2*width-1)/(2*width), mergeJob{items, buf, width, cmp})
	}

	out := make([]int32, n)
	for i, it := range items {
		out[i] = it.idx
	}
	return out
}

// sortBlock is the elements of one block-sorting job.
const sortBlock = 256

// blockSortJob sorts block i of items in place; the sort is stable and the
// blocks disjoint, so the result does not depend on who runs which. The
// typed sort needs neither a reflective swapper nor a closure per block.
type blockSortJob struct {
	items []keyed
	cmp   func(a, b keyed) int
}

func (j blockSortJob) Run(i int) {
	slices.SortStableFunc(j.items[i*sortBlock:min((i+1)*sortBlock, len(j.items))], j.cmp)
}

// mergeJob merges pair i of adjacent sorted runs of width elements through
// its own stretch of buf.
type mergeJob struct {
	items, buf []keyed
	width      int
	cmp        func(a, b keyed) int
}

func (j mergeJob) Run(i int) {
	n := len(j.items)
	lo := i * 2 * j.width
	mid, hi := min(lo+j.width, n), min(lo+2*j.width, n)
	if mid < hi && j.cmp(j.items[mid], j.items[mid-1]) < 0 { // else the interface is already ordered: no work
		mergeRuns(j.items, j.buf, lo, mid, hi, j.cmp)
	}
}

// compareFn orders items by segment, then key (descending or ascending),
// then original position, which keeps equal keys stable; a is before b
// exactly when the result is negative. A NaN key is never before another
// key, nor another key before it.
func compareFn(descending bool) func(a, b keyed) int {
	return func(a, b keyed) int {
		switch {
		case a.seg != b.seg:
			return int(a.seg - b.seg)
		case a.key != b.key:
			if descending && a.key > b.key || !descending && a.key < b.key {
				return -1
			}
			return 1
		}
		return int(a.idx - b.idx)
	}
}

func mergeRuns(items, buf []keyed, lo, mid, hi int, cmp func(a, b keyed) int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if cmp(items[j], items[i]) < 0 {
			buf[k] = items[j]
			j++
		} else {
			buf[k] = items[i]
			i++
		}
		k++
	}
	copy(buf[k:], items[i:mid])
	copy(buf[k+(mid-i):], items[j:hi])
	copy(items[lo:hi], buf[lo:hi])
}

// NaiveSegmentedArgsort is the per-segment baseline: each variable-length
// segment is sorted on its own. On a GPU this is the fine-grained,
// load-imbalanced formulation Figure 2 replaces; it is kept as the ablation
// baseline and as a reference implementation.
func NaiveSegmentedArgsort(data []float32, segs Segments, descending bool) []int32 {
	out := make([]int32, len(data))
	for s := 0; s < segs.NumSegments(); s++ {
		lo, hi := segs.Starts[s], segs.Starts[s+1]
		idx := make([]int32, hi-lo)
		for i := range idx {
			idx[i] = int32(lo + i)
		}
		sort.SliceStable(idx, func(i, j int) bool {
			a, b := data[idx[i]], data[idx[j]]
			if a == b {
				return idx[i] < idx[j]
			}
			if descending {
				return a > b
			}
			return a < b
		})
		copy(out[lo:hi], idx)
	}
	return out
}
