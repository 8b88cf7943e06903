package harness

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPercentileHandComputed(t *testing.T) {
	// Sorted: 1 2 3 4 10. Rank of q is q*(n-1) = 4q.
	xs := []float64{10, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1},
		{0.25, 2},   // rank 1
		{0.5, 3},    // rank 2
		{0.9, 7.6},  // rank 3.6: 4 + 0.6*(10-4)
		{0.95, 8.8}, // rank 3.8
		{1, 10},
	} {
		if got := Percentile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("Percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 10 {
		t.Error("Percentile reordered its input")
	}
	if got := Median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
	if got := Median([]float64{7}); got != 7 {
		t.Errorf("single-sample median = %v, want 7", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := Mean([]float64{1, 2, 6}); !near(got, 3) {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestTrimmedMeanHandComputed(t *testing.T) {
	// Ten values: a tenth trims one from each end, 100 and 0 here.
	xs := []float64{100, 2, 4, 4, 0, 6, 6, 8, 2, 8}
	if got := TrimmedMean(xs, 0.1); !near(got, 5) {
		t.Errorf("TrimmedMean(0.1) = %v, want 5", got)
	}
	if xs[0] != 100 {
		t.Error("TrimmedMean reordered its input")
	}
	// Nine values: a tenth rounds down to none, so it is the plain mean.
	if got := TrimmedMean([]float64{1, 2, 3, 4, 5, 6, 7, 8, 99}, 0.1); !near(got, 15) {
		t.Errorf("TrimmedMean of nine = %v, want the plain mean 15", got)
	}
	if !math.IsNaN(TrimmedMean(nil, 0.1)) {
		t.Error("trimmed mean of nothing should be NaN")
	}
}

// Two stretches: the host at the reference speed in the first and 1.5 times
// slower in the second. A request that costs 100 ms reads 100 and 150;
// normalised both read 100. Ten responses in 1 s and ten in 1.5 s are 8 req/s
// as timed and 10 req/s in reference-host time.
func TestHostNormalisationHandComputed(t *testing.T) {
	slow := []float64{1, 1.5}
	got := Normalised([]float64{100, 150, 90, 165}, []int{0, 1, 0, 1}, slow)
	for i, want := range []float64{100, 100, 90, 110} {
		if !near(got[i], want) {
			t.Errorf("normalised sample %d = %v, want %v", i, got[i], want)
		}
	}
	if got := NormalisedRate(20, []float64{1, 1.5}, slow); !near(got, 10) {
		t.Errorf("normalised rate = %v, want 10", got)
	}
	if got := NormalisedRate(20, []float64{1, 1.5}, []float64{1, 1}); !near(got, 8) {
		t.Errorf("rate on the reference host = %v, want the raw 8", got)
	}
}

func TestSpearmanHandComputed(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if got := Spearman(x, []float64{10, 20, 30, 40, 50}); !near(got, 1) {
		t.Errorf("monotone increasing: rho = %v, want 1", got)
	}
	if got := Spearman(x, []float64{5, 4, 3, 2, 1}); !near(got, -1) {
		t.Errorf("monotone decreasing: rho = %v, want -1", got)
	}
	// Ranks of y are 2 1 4 3 5: sum d^2 = 4, rho = 1 - 6*4/(5*24) = 0.8.
	if got := Spearman(x, []float64{20, 10, 40, 30, 50}); !near(got, 0.8) {
		t.Errorf("two swaps: rho = %v, want 0.8", got)
	}
	// Ties share the mean rank: x ranks 1.5 1.5 3, y ranks 1 2 3. Deviations
	// from the means (2, 2) are (-.5 -.5 1) and (-1 0 1): 1.5 / sqrt(1.5*2).
	if got := Spearman([]float64{1, 1, 2}, []float64{1, 2, 3}); math.Abs(got-math.Sqrt(3)/2) > 1e-12 {
		t.Errorf("tied x: rho = %v, want sqrt(3)/2", got)
	}
	if !math.IsNaN(Spearman([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("a constant sample has no rank correlation")
	}
	if !math.IsNaN(Spearman([]float64{1}, []float64{1})) {
		t.Error("one point has no rank correlation")
	}
}

// A synthetic request: client 0..100 calls the pool 5..95, which waits
// 5..15 for a session that runs 20..90 and executes two nodes, 25..45 and
// 50..85. A second child of the pool overlaps the session and must not be
// counted twice; a node that overruns its session is clipped to it.
func TestSelfTimeOnNestedTrace(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "pool", Start: 5, End: 95},
		{ID: 3, Parent: 2, Layer: "pool.wait", Start: 5, End: 15},
		{ID: 4, Parent: 2, Layer: "session", Start: 20, End: 90},
		{ID: 5, Parent: 4, Layer: "node", Start: 25, End: 45},
		{ID: 6, Parent: 4, Layer: "node", Start: 50, End: 85},
		{ID: 7, Parent: 2, Layer: "overlap", Start: 80, End: 93},
		{ID: 8, Parent: 4, Layer: "node", Start: 88, End: 99},
	}
	self := SelfTimes(spans)
	want := map[int]int64{
		1: 10,               // 100 - 90
		2: 90 - 10 - 70 - 3, // wait 10, session 70, overlap adds only 90..93
		3: 10,
		4: 70 - 20 - 35 - 2, // nodes 20 and 35, the overrunning one clipped to 88..90
		5: 20,
		6: 35,
		7: 13,
		8: 11,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	// Self time plus covered child time tiles each parent exactly.
	if got := self[4] + 20 + 35 + 2; got != spans[3].Dur() {
		t.Errorf("session does not tile: %d vs %d", got, spans[3].Dur())
	}

	by := ByLayer(spans)
	if n := by["node"]; n.Count != 3 || n.DurNs != 66 || n.SelfNs != 66 {
		t.Errorf("node layer = %+v", n)
	}
	if p := by["pool"]; p.Count != 1 || p.DurNs != 90 || p.SelfNs != 7 {
		t.Errorf("pool layer = %+v", p)
	}
}

func TestEnclosingPicksLatestStartedContainer(t *testing.T) {
	calls := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Start: 40, End: 160}, // a second client, overlapping the first
		{ID: 3, Start: 200, End: 300},
	}
	if got := Enclosing(calls, 10, 90); got == nil || got.ID != 1 {
		t.Errorf("10..90 belongs to call 1, got %+v", got)
	}
	if got := Enclosing(calls, 41, 95); got == nil || got.ID != 2 {
		t.Errorf("41..95 is inside both; the callee of the later call wins, got %+v", got)
	}
	if got := Enclosing(calls, 150, 210); got != nil {
		t.Errorf("150..210 straddles calls, got %+v", got)
	}
}

func TestCheckerRejectsOneFlippedBit(t *testing.T) {
	want := []float32{0.25, -1.5, 3e-8, 0}
	c := &Checker{Shape: []int{1, 4}, Want: [][]float32{want}, Exact: true}
	if _, err := c.Check(0, append([]float32(nil), want...)); err != nil {
		t.Fatalf("identical output rejected: %v", err)
	}
	for i := range want {
		for _, bit := range []uint{0, 22, 31} { // lowest mantissa bit, highest mantissa bit, sign
			got := append([]float32(nil), want...)
			got[i] = math.Float32frombits(math.Float32bits(got[i]) ^ 1<<bit)
			if _, err := c.Check(0, got); err == nil {
				t.Errorf("element %d with bit %d flipped was accepted", i, bit)
			}
		}
	}
	// -0 equals +0 as a value; only a bit comparison tells them apart.
	if _, err := c.Check(0, []float32{0.25, -1.5, 3e-8, float32(math.Copysign(0, -1))}); err == nil {
		t.Error("-0 for +0 was accepted")
	}
	if _, err := c.Check(0, want[:3]); err == nil {
		t.Error("a short output was accepted")
	}
}

func TestCheckerHoldsReducedPrecisionToItsBudget(t *testing.T) {
	want := []float32{0.5, 0.25, -2, 0.125} // largest magnitude 2 normalises the error
	c := &Checker{Shape: []int{1, 4}, Want: [][]float32{want}, Budget: 0.05}
	within := []float32{0.5, 0.33, -2, 0.125} // |0.33-0.25|/2 = 0.04
	if e, err := c.Check(0, within); err != nil || math.Abs(e-0.04) > 1e-6 {
		t.Errorf("error 0.04 under budget 0.05: got e=%v err=%v", e, err)
	}
	over := []float32{0.5, 0.37, -2, 0.125} // 0.06
	if e, err := c.Check(0, over); err == nil {
		t.Errorf("error %v over budget 0.05 was accepted", e)
	}
	nan := []float32{0.5, float32(math.NaN()), -2, 0.125}
	if _, err := c.Check(0, nan); err == nil {
		t.Error("a NaN response was accepted")
	}

	// Detections compare the confidence column only, as an absolute difference.
	det := &Checker{Shape: []int{1, 2, 6}, Budget: 0.1, Want: [][]float32{{
		1, 0.9, 10, 10, 20, 20,
		2, 0.4, 30, 30, 40, 40,
	}}}
	boxesMoved := []float32{1, 0.95, 99, 99, 99, 99, 2, 0.4, 0, 0, 0, 0}
	if _, err := det.Check(0, boxesMoved); err != nil {
		t.Errorf("confidence within 0.1 rejected: %v", err)
	}
	scoreMoved := []float32{1, 0.9, 10, 10, 20, 20, 2, 0.6, 30, 30, 40, 40}
	if _, err := det.Check(0, scoreMoved); err == nil {
		t.Error("confidence off by 0.2 accepted under budget 0.1")
	}
}

func TestDigestSeesEveryBit(t *testing.T) {
	a := Digest([]float32{1, 2, 3})
	if a != Digest([]float32{1, 2, 3}) {
		t.Error("digest is not deterministic")
	}
	if a == Digest([]float32{1, 2, math.Float32frombits(math.Float32bits(3) ^ 1)}) {
		t.Error("digest missed a flipped bit")
	}
	if len(a) != 64 {
		t.Errorf("digest %q is not a SHA-256 in hex", a)
	}
}
