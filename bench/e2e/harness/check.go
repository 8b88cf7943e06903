package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// Checker verifies responses against reference outputs computed outside the
// code under test, one reference per distinct input.
type Checker struct {
	// Shape is the output shape; rank-3 outputs are detections
	// [1, rows, width] and are compared as RelErr describes.
	Shape []int
	// Want holds the reference output of input i.
	Want [][]float32
	// Exact demands bit-identity (fp32 workloads). Otherwise RelErr against
	// the reference must stay within Budget (fp16/int8 workloads).
	Exact  bool
	Budget float64
}

// Check compares one response to the reference of input i. It returns the
// relative error it measured (0 for an exact match) and a non-nil error
// when the response fails its check.
func (c *Checker) Check(i int, got []float32) (float64, error) {
	want := c.Want[i]
	if len(got) != len(want) {
		return math.Inf(1), fmt.Errorf("input %d: output has %d elements, reference %d", i, len(got), len(want))
	}
	if c.Exact {
		if at := FirstBitDiff(got, want); at >= 0 {
			return RelErr(want, got, c.Shape), fmt.Errorf("input %d: element %d is %#08x, reference %#08x",
				i, at, math.Float32bits(got[at]), math.Float32bits(want[at]))
		}
		return 0, nil
	}
	e := RelErr(want, got, c.Shape)
	if !(e <= c.Budget) { // also catches NaN
		return e, fmt.Errorf("input %d: relative error %.3e exceeds budget %.1e", i, e, c.Budget)
	}
	return e, nil
}

// FirstBitDiff returns the index of the first element whose IEEE-754 bit
// pattern differs, or -1 when the slices are bit-identical. Comparing bits
// rather than values distinguishes -0 from +0 and treats equal NaN payloads
// as equal.
func FirstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// RelErr is the accuracy metric of the repo's dtype budgets
// (TestDTypeAccuracyBudgets): classification outputs compare elementwise,
// normalised by the largest finite reference magnitude; detection outputs
// (rank 3, [1, rows, width]) compare the confidence column (index 1) only,
// as an absolute difference, because box coordinates are chaotic under
// random weights. Elements whose reference is not finite are skipped; a
// response that is not finite where its reference is has infinite error.
func RelErr(ref, got []float32, shape []int) float64 {
	worst := 0.0
	if len(shape) == 3 {
		width := shape[2]
		for i := 1; i < len(ref) && i < len(got); i += width {
			r, g := float64(ref[i]), float64(got[i])
			if math.IsNaN(r) {
				continue
			}
			if math.IsNaN(g) {
				return math.Inf(1)
			}
			worst = math.Max(worst, math.Abs(g-r))
		}
		return worst
	}
	scale := 0.0
	for _, v := range ref {
		if a := math.Abs(float64(v)); !math.IsInf(a, 0) && !math.IsNaN(a) && a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	for i := range ref {
		r, g := float64(ref[i]), float64(got[i])
		if math.IsInf(r, 0) || math.IsNaN(r) {
			continue
		}
		if math.IsInf(g, 0) || math.IsNaN(g) {
			return math.Inf(1)
		}
		worst = math.Max(worst, math.Abs(g-r)/scale)
	}
	return worst
}

// Digest is the SHA-256 of the values' little-endian bit patterns, used to
// pin reference outputs in testdata/golden.json.
func Digest(xs []float32) string {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
