package vision

import "unigpu/internal/par"

// PrefixSum computes the inclusive prefix sum with the three-stage scheme
// of Figure 3: register-blocked up-sweep, a Hillis–Steele scan over the
// per-processor reductions, and a parallel down-sweep that adds each
// processor's carry back. numProcs models the number of parallel
// processors; the flat array is divided into ceil(n/numProcs)-sized chunks,
// one per processor, so no global synchronization is needed inside a chunk
// — that is the register-blocking idea (§3.1.1).
func PrefixSum(data []float32, numProcs int) []float32 {
	n := len(data)
	out := make([]float32, n)
	if n == 0 {
		return out
	}
	if numProcs < 1 {
		numProcs = 1
	}
	chunk := (n + numProcs - 1) / numProcs
	procs := (n + chunk - 1) / chunk

	// Up-sweep: sequential inclusive scan inside each processor's chunk,
	// all processors in parallel.
	sums := make([]float32, procs)
	par.For(procs, upSweepJob{data, out, sums, chunk})

	// Scan: Hillis–Steele inclusive scan across the per-processor
	// reductions (log(procs) passes over a tiny array — no global sync
	// over the full input).
	carries := HillisSteeleScan(sums)

	// Down-sweep: add the carry of everything before each processor.
	par.For(procs-1, downSweepJob{out, carries, chunk})
	return out
}

// upSweepJob scans processor p's chunk of data into out and leaves the
// chunk's total in sums[p].
type upSweepJob struct {
	data, out, sums []float32
	chunk           int
}

func (j upSweepJob) Run(p int) {
	var acc float32
	for i := p * j.chunk; i < min((p+1)*j.chunk, len(j.data)); i++ {
		acc += j.data[i]
		j.out[i] = acc
	}
	j.sums[p] = acc
}

// downSweepJob adds the carry of processors 0..i to processor i+1's chunk.
type downSweepJob struct {
	out, carries []float32
	chunk        int
}

func (j downSweepJob) Run(i int) {
	for k := (i + 1) * j.chunk; k < min((i+2)*j.chunk, len(j.out)); k++ {
		j.out[k] += j.carries[i]
	}
}

// HillisSteeleScan is the classic O(n log n) inclusive scan [15]: in pass
// d, element i-2^d is added to element i. Used directly over the
// per-processor reductions, and standalone as the naive whole-array GPU
// scan baseline (each pass costs a global synchronization on real
// hardware, which is what the register blocking avoids).
func HillisSteeleScan(data []float32) []float32 {
	n := len(data)
	cur := make([]float32, n)
	copy(cur, data)
	next := make([]float32, n)
	for d := 1; d < n; d *= 2 {
		for i := 0; i < n; i++ {
			if i >= d {
				next[i] = cur[i] + cur[i-d]
			} else {
				next[i] = cur[i]
			}
		}
		cur, next = next, cur
	}
	return cur
}

// ScanPasses returns the number of Hillis–Steele passes for n elements,
// i.e. ceil(log2(n)) — each pass is a global synchronization in the naive
// GPU formulation.
func ScanPasses(n int) int {
	p := 0
	for d := 1; d < n; d *= 2 {
		p++
	}
	return p
}
