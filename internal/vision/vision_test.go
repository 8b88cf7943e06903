package vision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

func TestFigure3PrefixSumExample(t *testing.T) {
	// The paper's exact Figure 3 example: 18 elements, 5 processors.
	input := []float32{5, 7, 1, 1, 3, 4, 2, 0, 3, 1, 1, 2, 6, 1, 2, 3, 1, 3}
	want := []float32{5, 12, 13, 14, 17, 21, 23, 23, 26, 27, 28, 30, 36, 37, 39, 42, 43, 46}
	got := PrefixSum(input, 5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PrefixSum[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestFigure3UpSweepReductions(t *testing.T) {
	// The per-processor reductions in Figure 3 are 14, 9, 7, 12, 4 and
	// their Hillis–Steele scan is 14, 23, 30, 42, 46.
	sums := []float32{14, 9, 7, 12, 4}
	scan := HillisSteeleScan(sums)
	want := []float32{14, 23, 30, 42, 46}
	for i := range want {
		if scan[i] != want[i] {
			t.Fatalf("scan = %v, want %v", scan, want)
		}
	}
}

func TestPrefixSumMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 100, 1000, 4097} {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rng.Intn(9))
		}
		want := SequentialScan(data)
		for _, procs := range []int{1, 3, 5, 16, 64} {
			got := PrefixSum(data, procs)
			for i := range want {
				if math.Abs(float64(got[i]-want[i])) > 1e-3 {
					t.Fatalf("n=%d procs=%d: PrefixSum[%d]=%v want %v", n, procs, i, got[i], want[i])
				}
			}
		}
	}
}

func TestHillisSteeleMatchesSequential(t *testing.T) {
	f := func(raw []uint8) bool {
		data := make([]float32, len(raw))
		for i, v := range raw {
			data[i] = float32(v % 16)
		}
		got := HillisSteeleScan(data)
		want := SequentialScan(data)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestScanPasses(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := ScanPasses(n); got != want {
			t.Errorf("ScanPasses(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSegmentOf(t *testing.T) {
	segs := NewEvenSegments(3, 0, 4, 2)
	wants := []int{0, 0, 0, 2, 2, 2, 2, 3, 3}
	for p, want := range wants {
		if got := segs.SegmentOf(p); got != want {
			t.Errorf("SegmentOf(%d) = %d, want %d", p, got, want)
		}
	}
	if segs.Len() != 9 || segs.NumSegments() != 4 {
		t.Fatal("segment accounting wrong")
	}
}

func checkSegmentedSorted(t *testing.T, data []float32, segs Segments, order []int32, descending bool) {
	t.Helper()
	if len(order) != len(data) {
		t.Fatalf("order length %d != data %d", len(order), len(data))
	}
	seen := map[int32]bool{}
	for p, src := range order {
		// Permutation property.
		if seen[src] {
			t.Fatalf("index %d appears twice", src)
		}
		seen[src] = true
		// Elements stay within their segment.
		if segs.SegmentOf(p) != segs.SegmentOf(int(src)) {
			t.Fatalf("position %d (segment %d) filled from segment %d",
				p, segs.SegmentOf(p), segs.SegmentOf(int(src)))
		}
	}
	// Ordered within each segment.
	for s := 0; s < segs.NumSegments(); s++ {
		for p := segs.Starts[s] + 1; p < segs.Starts[s+1]; p++ {
			a, b := data[order[p-1]], data[order[p]]
			if descending && a < b {
				t.Fatalf("segment %d not descending at %d: %v < %v", s, p, a, b)
			}
			if !descending && a > b {
				t.Fatalf("segment %d not ascending at %d: %v > %v", s, p, a, b)
			}
		}
	}
}

func TestSegmentedArgsortBasic(t *testing.T) {
	data := []float32{3, 1, 2, 9, 8, 7, 6, 0.5}
	segs := NewEvenSegments(3, 4, 1)
	order := SegmentedArgsort(data, segs, true)
	checkSegmentedSorted(t, data, segs, order, true)
	// First segment sorted descending: 3,2,1 -> indices 0,2,1.
	if order[0] != 0 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("segment 0 order = %v", order[:3])
	}
}

// TestSegmentedArgsortMatchesNaive: over segments crossing the sort blocks,
// with many tied keys, +0 and -0 (which compare equal) among them, the block
// sort and cooperative merge give the per-segment stable sort's order,
// index for index.
func TestSegmentedArgsortMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		numSegs := 1 + rng.Intn(8)
		sizes := make([]int, numSegs)
		total := 0
		for i := range sizes {
			sizes[i] = rng.Intn(700)
			total += sizes[i]
		}
		segs := NewEvenSegments(sizes...)
		data := make([]float32, total)
		for i := range data {
			data[i] = float32(rng.Intn(50) - 25)
			if data[i] == 0 && rng.Intn(2) == 0 {
				data[i] = float32(math.Copysign(0, -1))
			}
		}
		for _, desc := range []bool{true, false} {
			fast := SegmentedArgsort(data, segs, desc)
			slow := NaiveSegmentedArgsort(data, segs, desc)
			checkSegmentedSorted(t, data, segs, fast, desc)
			for i := range fast {
				if fast[i] != slow[i] {
					t.Fatalf("trial %d desc=%v: position %d holds %d, want %d", trial, desc, i, fast[i], slow[i])
				}
			}
		}
	}
}

func TestSegmentedArgsortCrossesBlockBoundaries(t *testing.T) {
	// One big segment far larger than the block size exercises every
	// cooperative merge round of Figure 2.
	n := 5000
	rng := rand.New(rand.NewSource(4))
	data := make([]float32, n)
	for i := range data {
		data[i] = rng.Float32()
	}
	segs := NewEvenSegments(n)
	order := SegmentedArgsort(data, segs, false)
	checkSegmentedSorted(t, data, segs, order, false)
}

func TestArgsortSingleSegment(t *testing.T) {
	order := Argsort([]float32{0.3, 0.9, 0.1}, true)
	if order[0] != 1 || order[1] != 0 || order[2] != 2 {
		t.Fatalf("argsort = %v", order)
	}
}

func TestSegmentedArgsortStability(t *testing.T) {
	data := []float32{5, 5, 5, 5}
	order := SegmentedArgsort(data, NewEvenSegments(4), true)
	for i := range order {
		if order[i] != int32(i) {
			t.Fatalf("equal keys must keep original order, got %v", order)
		}
	}
}

func TestPropertySegmentedSortPermutation(t *testing.T) {
	f := func(raw []uint8, cut uint8) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]float32, len(raw))
		for i, v := range raw {
			data[i] = float32(v)
		}
		c := int(cut) % len(raw)
		segs := NewEvenSegments(c, len(raw)-c)
		order := SegmentedArgsort(data, segs, true)
		seen := make([]bool, len(data))
		for _, o := range order {
			if seen[o] {
				return false
			}
			seen[o] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIoU(t *testing.T) {
	a := [4]float32{0, 0, 2, 2}
	if got := IoU(a, a); math.Abs(float64(got)-1) > 1e-6 {
		t.Fatalf("self IoU = %v", got)
	}
	b := [4]float32{1, 1, 3, 3}
	if got := IoU(a, b); math.Abs(float64(got)-1.0/7) > 1e-6 {
		t.Fatalf("IoU = %v, want 1/7", got)
	}
	if IoU(a, [4]float32{5, 5, 6, 6}) != 0 {
		t.Fatal("disjoint boxes must have IoU 0")
	}
	if IoU(a, [4]float32{3, 3, 1, 1}) != 0 {
		t.Fatal("degenerate boxes must have IoU 0")
	}
}

// poisoned returns a NaN-filled tensor for a kernel to overwrite.
func poisoned(shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.Fill(float32(math.NaN()))
	return t
}

// boxNMS runs BoxNMS into a poisoned output.
func boxNMS(dets *tensor.Tensor, cfg NMSConfig) *tensor.Tensor {
	out := poisoned(dets.Shape()...)
	BoxNMS(out, dets, cfg)
	return out
}

func makeDets(rows ...[6]float32) *tensor.Tensor {
	out := tensor.New(1, len(rows), DetWidth)
	for i, r := range rows {
		for k, v := range r {
			out.Set(v, 0, i, k)
		}
	}
	return out
}

func TestBoxNMSSuppressesOverlaps(t *testing.T) {
	dets := makeDets(
		[6]float32{0, 0.9, 0, 0, 10, 10},
		[6]float32{0, 0.8, 1, 1, 11, 11}, // heavy overlap with row 0 -> dies
		[6]float32{0, 0.7, 50, 50, 60, 60},
		[6]float32{1, 0.6, 0, 0, 10, 10}, // other class -> survives
	)
	out := boxNMS(dets, NMSConfig{IoUThreshold: 0.5})
	if out.At(0, 0, 1) != 0.9 || out.At(0, 1, 1) != 0.7 || out.At(0, 2, 1) != 0.6 {
		t.Fatalf("kept scores = %v %v %v", out.At(0, 0, 1), out.At(0, 1, 1), out.At(0, 2, 1))
	}
	if out.At(0, 3, 0) != -1 {
		t.Fatal("fourth row should be invalid")
	}
}

func TestBoxNMSScoreThresholdAndMaxOutput(t *testing.T) {
	dets := makeDets(
		[6]float32{0, 0.9, 0, 0, 1, 1},
		[6]float32{0, 0.05, 5, 5, 6, 6}, // below threshold
		[6]float32{0, 0.8, 10, 10, 11, 11},
		[6]float32{0, 0.7, 20, 20, 21, 21},
	)
	out := boxNMS(dets, NMSConfig{IoUThreshold: 0.5, ScoreThreshold: 0.1, MaxOutput: 2})
	if out.At(0, 0, 1) != 0.9 || out.At(0, 1, 1) != 0.8 {
		t.Fatal("top-2 by score expected")
	}
	if out.At(0, 2, 0) != -1 {
		t.Fatal("MaxOutput=2 must invalidate the rest")
	}
}

func TestBoxNMSMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		batch, num := 1+rng.Intn(3), 1+rng.Intn(60)
		dets := tensor.New(batch, num, DetWidth)
		for b := 0; b < batch; b++ {
			for i := 0; i < num; i++ {
				x := rng.Float32() * 50
				y := rng.Float32() * 50
				dets.Set(float32(rng.Intn(3)), b, i, 0)
				dets.Set(rng.Float32(), b, i, 1)
				dets.Set(x, b, i, 2)
				dets.Set(y, b, i, 3)
				dets.Set(x+1+rng.Float32()*20, b, i, 4)
				dets.Set(y+1+rng.Float32()*20, b, i, 5)
			}
		}
		cfg := NMSConfig{IoUThreshold: 0.4, ScoreThreshold: 0.05}
		fast := boxNMS(dets, cfg)
		slow := SequentialNMS(dets, cfg)
		if !tensor.AllClose(fast, slow, 1e-6) {
			t.Fatalf("trial %d: GPU-style NMS diverges from sequential (max diff %g)",
				trial, tensor.MaxAbsDiff(fast, slow))
		}
	}
}

func TestMultiboxPrior(t *testing.T) {
	p := MultiboxPrior(2, 2, []float32{0.2, 0.4}, []float32{1, 2})
	// anchors per cell = len(sizes) + len(ratios) - 1 = 3.
	if !p.Shape().Equal(tensor.Shape{1, 12, 4}) {
		t.Fatalf("prior shape = %v", p.Shape())
	}
	// First anchor of first cell: center (0.25, 0.25), size 0.2, ratio 1.
	if math.Abs(float64(p.At(0, 0, 0))-0.15) > 1e-6 || math.Abs(float64(p.At(0, 0, 2))-0.35) > 1e-6 {
		t.Fatalf("first anchor = [%v %v %v %v]", p.At(0, 0, 0), p.At(0, 0, 1), p.At(0, 0, 2), p.At(0, 0, 3))
	}
	// Ratio-2 anchor is wider than tall.
	w := p.At(0, 2, 2) - p.At(0, 2, 0)
	h := p.At(0, 2, 3) - p.At(0, 2, 1)
	if w <= h {
		t.Fatalf("ratio-2 anchor should be wide: w=%v h=%v", w, h)
	}
}

func TestDecodeBoxIdentity(t *testing.T) {
	anchor := [4]float32{0.1, 0.2, 0.5, 0.8}
	got := DecodeBox(anchor, [4]float32{0, 0, 0, 0})
	for k := 0; k < 4; k++ {
		if math.Abs(float64(got[k]-anchor[k])) > 1e-6 {
			t.Fatalf("zero regression must return the anchor, got %v", got)
		}
	}
	// Positive dx moves the box right.
	moved := DecodeBox(anchor, [4]float32{1, 0, 0, 0})
	if moved[0] <= anchor[0] {
		t.Fatal("positive dx should move right")
	}
}

func TestMultiboxDetectionEndToEnd(t *testing.T) {
	// Two anchors, three classes (background + 2): anchor 0 strongly
	// class 1, anchor 1 background.
	anchors := tensor.FromData([]float32{0.1, 0.1, 0.3, 0.3, 0.6, 0.6, 0.9, 0.9}, 1, 2, 4)
	clsProb := tensor.FromData([]float32{
		0.05, 0.9, // background prob per anchor
		0.9, 0.05, // class 1
		0.05, 0.05, // class 2
	}, 1, 3, 2)
	loc := tensor.New(1, 8)
	out := poisoned(1, 2, DetWidth)
	MultiboxDetection(out, clsProb, loc, anchors, NMSConfig{IoUThreshold: 0.5, ScoreThreshold: 0.2})
	if out.At(0, 0, 0) != 0 || out.At(0, 0, 1) != 0.9 {
		t.Fatalf("first detection = class %v score %v", out.At(0, 0, 0), out.At(0, 0, 1))
	}
	if math.Abs(float64(out.At(0, 0, 2))-0.1) > 1e-5 {
		t.Fatalf("decoded box x1 = %v", out.At(0, 0, 2))
	}
}

func TestYoloDecode(t *testing.T) {
	numClasses := 2
	anchors := [][2]float32{{10, 20}}
	feat := tensor.New(1, 1*(5+numClasses), 2, 2)
	// Cell (0,0): high objectness, class 1.
	feat.Set(5, 0, 4, 0, 0)  // objectness logit
	feat.Set(4, 0, 6, 0, 0)  // class-1 logit
	feat.Set(-5, 0, 5, 0, 0) // class-0 logit
	out := poisoned(1, 4, DetWidth)
	YoloDecode(out, feat, anchors, numClasses, 32)
	if out.At(0, 0, 0) != 1 {
		t.Fatalf("best class = %v, want 1", out.At(0, 0, 0))
	}
	if out.At(0, 0, 1) < 0.9 {
		t.Fatalf("confidence = %v", out.At(0, 0, 1))
	}
	// Box centered in cell (0,0) at stride 32 with sigmoid(0)=0.5: cx=16.
	cx := (out.At(0, 0, 2) + out.At(0, 0, 4)) / 2
	if math.Abs(float64(cx)-16) > 1e-4 {
		t.Fatalf("cx = %v, want 16", cx)
	}
	// Width = anchor width when tw=0.
	if w := out.At(0, 0, 4) - out.At(0, 0, 2); math.Abs(float64(w)-10) > 1e-4 {
		t.Fatalf("w = %v, want 10", w)
	}
}

func TestVisionCostShapes(t *testing.T) {
	for _, d := range []*sim.Device{sim.IntelHD505, sim.MaliT860, sim.MaxwellNano} {
		n := 10000
		// Optimized formulations must beat naive ones decisively.
		if SegmentedSortCost(d, n) >= NaiveSortCost(d, n, 4) {
			t.Errorf("%s: segmented sort not faster than naive", d.Name)
		}
		if ScanCost(d, n) >= NaiveScanCost(d, n) {
			t.Errorf("%s: 3-stage scan not faster than Hillis-Steele", d.Name)
		}
		if NMSCost(d, n, 100) >= NaiveNMSCost(d, n, 100) {
			t.Errorf("%s: optimized NMS not faster than branching NMS", d.Name)
		}
	}
	// Mali (no shared memory) must benefit relatively more from the
	// optimization than Nvidia (§4.3 Table 4).
	gainMali := NaiveSortCost(sim.MaliT860, 10000, 4) / SegmentedSortCost(sim.MaliT860, 10000)
	gainNano := NaiveSortCost(sim.MaxwellNano, 10000, 4) / SegmentedSortCost(sim.MaxwellNano, 10000)
	if gainMali <= gainNano {
		t.Errorf("Mali sort gain %.1fx should exceed Nvidia %.1fx", gainMali, gainNano)
	}
}

func TestCPUNMSCheaperThanNaiveGPU(t *testing.T) {
	// The rationale for fallback (§3.1.2): sequential control flow is
	// cheaper on the CPU than a naive GPU port.
	for _, p := range sim.Platforms() {
		cpu := CPUNMSCost(p.CPU, 6000, 100)
		gpu := NaiveNMSCost(p.GPU, 6000, 100)
		if cpu >= gpu {
			t.Errorf("%s: CPU NMS %.4fs should beat naive GPU NMS %.4fs", p.Name, cpu, gpu)
		}
	}
}
