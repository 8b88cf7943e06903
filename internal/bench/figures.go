package bench

import (
	"fmt"
	"strings"

	"unigpu/internal/sim"
	"unigpu/internal/vision"
)

// Figure2Demo traces the segmented-sort pipeline of Figure 2 on a small
// example: per-segment data, block sorting, and the final per-segment
// ordering, with the modelled GPU cost comparison.
func Figure2Demo() string {
	var b strings.Builder
	b.WriteString("Figure 2 — segmented sort pipeline\n\n")
	data := []float32{9, 3, 7, 1, 8, 8, 2, 5, 4, 6, 0, 2, 7}
	segs := vision.NewEvenSegments(4, 6, 3)
	fmt.Fprintf(&b, "flattened input: %v\n", data)
	fmt.Fprintf(&b, "segment starts : %v (3 variable-length segments)\n\n", segs.Starts)

	order := vision.SegmentedArgsort(data, segs, true)
	for s := 0; s < segs.NumSegments(); s++ {
		lo, hi := segs.Starts[s], segs.Starts[s+1]
		vals := make([]float32, 0, hi-lo)
		for _, idx := range order[lo:hi] {
			vals = append(vals, data[idx])
		}
		fmt.Fprintf(&b, "segment %d sorted (desc): %v  (source indices %v)\n", s, vals, order[lo:hi])
	}

	b.WriteString("\nmodelled GPU cost, 24528 boxes (SSD512), 20 classes:\n")
	for _, p := range sim.Platforms() {
		fmt.Fprintf(&b, "  %-22s naive per-segment %8.2f ms   segmented %6.2f ms\n",
			p.Name, vision.NaiveSortCost(p.GPU, 24528, 20)*1e3, vision.SegmentedSortCost(p.GPU, 24528)*1e3)
	}
	return b.String()
}

// Figure3Demo reproduces the paper's exact prefix-sum example (18
// elements, 5 processors) stage by stage.
func Figure3Demo() string {
	var b strings.Builder
	b.WriteString("Figure 3 — prefix sum (scan) pipeline, the paper's exact example\n\n")
	input := []float32{5, 7, 1, 1, 3, 4, 2, 0, 3, 1, 1, 2, 6, 1, 2, 3, 1, 3}
	procs := 5
	chunk := (len(input) + procs - 1) / procs
	fmt.Fprintf(&b, "input (18 elements, %d processors, chunk %d):\n  %v\n\n", procs, chunk, input)

	// Up-sweep: per-processor inclusive scans and reductions.
	b.WriteString("up-sweep (sequential scan inside each processor):\n")
	sums := make([]float32, 0, procs)
	for p := 0; p < procs; p++ {
		lo := p * chunk
		hi := min(lo+chunk, len(input))
		var acc float32
		scanned := make([]float32, 0, hi-lo)
		for _, v := range input[lo:hi] {
			acc += v
			scanned = append(scanned, acc)
		}
		sums = append(sums, acc)
		fmt.Fprintf(&b, "  proc %d: %v  (reduction %g)\n", p, scanned, acc)
	}

	// Scan over the reductions.
	fmt.Fprintf(&b, "\nscan (Hillis–Steele over reductions %v):\n", sums)
	cur := append([]float32(nil), sums...)
	for d, pass := 1, 0; d < len(cur); d, pass = d*2, pass+1 {
		next := make([]float32, len(cur))
		copy(next, cur)
		for i := d; i < len(cur); i++ {
			next[i] = cur[i] + cur[i-d]
		}
		cur = next
		fmt.Fprintf(&b, "  pass %d (i-%d): %v\n", pass, d, cur)
	}

	// Down-sweep.
	out := vision.PrefixSum(input, procs)
	fmt.Fprintf(&b, "\ndown-sweep (add carries back):\n  %v\n", out)

	b.WriteString("\nmodelled GPU cost, 1M elements:\n")
	for _, p := range sim.Platforms() {
		fmt.Fprintf(&b, "  %-22s Hillis–Steele %8.2f ms   3-stage register-blocked %6.2f ms\n",
			p.Name, vision.NaiveScanCost(p.GPU, 1<<20)*1e3, vision.ScanCost(p.GPU, 1<<20)*1e3)
	}
	return b.String()
}
