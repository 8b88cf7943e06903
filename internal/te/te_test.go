package te_test

import (
	"strings"
	"testing"
	"testing/quick"

	"unigpu/internal/exec"
	"unigpu/internal/ir"
	"unigpu/internal/te"
)

// matmul declares C[m,n] = sum_k A[m,k]*B[k,n].
func matmul(m, n, k int) (*te.Tensor, *te.Tensor, *te.Tensor) {
	A := te.Placeholder("A", m, k)
	B := te.Placeholder("B", k, n)
	C := te.Sum("C", []int{m, n}, []int{k}, func(ax, r []ir.Expr) ir.Expr {
		return ir.Mul(A.Access(ax[0], r[0]), B.Access(r[0], ax[1]))
	})
	return A, B, C
}

func refMatmul(a, b []float32, m, n, k int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a[i*k+kk] * b[kk*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func runMatmul(t *testing.T, m, n, k int, schedule func(s *te.Schedule)) []float32 {
	t.Helper()
	_, _, C := matmul(m, n, k)
	s := te.NewSchedule(C)
	if schedule != nil {
		schedule(s)
	}
	kern := te.Lower("matmul", s)
	env := exec.NewEnv()
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(i%7) - 3
	}
	for i := range b {
		b[i] = float32(i%5) - 2
	}
	c := make([]float32, m*n)
	env.Bind("A", a)
	env.Bind("B", b)
	env.Bind("C", c)
	if err := exec.RunKernel(kern, env); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := refMatmul(a, b, m, n, k)
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("element %d = %v, want %v (schedule %v)", i, c[i], want[i], s)
		}
	}
	return c
}

func TestDefaultScheduleMatmul(t *testing.T) {
	runMatmul(t, 4, 5, 6, nil)
}

func TestSplitDividing(t *testing.T) {
	runMatmul(t, 8, 8, 8, func(s *te.Schedule) {
		ax := s.SpatialAxes()
		s.Split(ax[0], 4)
	})
}

func TestSplitNonDividingEmitsGuards(t *testing.T) {
	runMatmul(t, 7, 5, 3, func(s *te.Schedule) {
		ax := s.SpatialAxes()
		s.Split(ax[0], 4) // 7 does not divide by 4 -> guard
	})
}

// TestTileAndReorder tiles both spatial axes by factors that divide
// neither and moves the two outer loops outside the two inner ones, as the
// conv templates tile their output: the guards of both splits must hold
// across the reorder.
func TestTileAndReorder(t *testing.T) {
	runMatmul(t, 9, 7, 5, func(s *te.Schedule) {
		ax := s.SpatialAxes()
		xo, xi := s.Split(ax[0], 4)
		yo, yi := s.Split(ax[1], 4)
		s.Reorder(xo, yo, xi, yi)
	})
}

func TestSplitReduceAxis(t *testing.T) {
	runMatmul(t, 4, 4, 10, func(s *te.Schedule) {
		r := s.ReduceAxes()
		ro, ri := s.Split(r[0], 3) // non-dividing reduce split
		s.Reorder(ro, ri)
	})
}

func TestBindUnrollVectorize(t *testing.T) {
	runMatmul(t, 8, 8, 4, func(s *te.Schedule) {
		ax := s.SpatialAxes()
		mo, mi := s.Split(ax[0], 2)
		no, ni := s.Split(ax[1], 4)
		s.Reorder(mo, no, mi, ni)
		s.Bind(mo, ir.ForThreadBlock)
		s.Bind(no, ir.ForThread)
		s.Unroll(mi)
		s.Vectorize(ni)
	})
}

func TestDeepSplitChain(t *testing.T) {
	runMatmul(t, 16, 4, 4, func(s *te.Schedule) {
		ax := s.SpatialAxes()
		_, mi := s.Split(ax[0], 8)
		_, mii := s.Split(mi, 4)
		s.Split(mii, 2)
	})
}

func TestElementwiseCompute(t *testing.T) {
	A := te.Placeholder("A", 3, 4)
	B := te.Compute("B", []int{3, 4}, func(ax []ir.Expr) ir.Expr {
		return ir.Add(A.Access(ax[0], ax[1]), ir.FImm(1))
	})
	s := te.NewSchedule(B)
	ax := s.SpatialAxes()
	s.Split(ax[1], 3)
	k := te.Lower("add1", s)
	env := exec.NewEnv()
	a := make([]float32, 12)
	for i := range a {
		a[i] = float32(i)
	}
	b := make([]float32, 12)
	env.Bind("A", a)
	env.Bind("B", b)
	if err := exec.RunKernel(k, env); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if b[i] != float32(i)+1 {
			t.Fatalf("b[%d] = %v", i, b[i])
		}
	}
	if len(k.Inputs) != 1 || k.Inputs[0] != "A" {
		t.Fatalf("inputs = %v", k.Inputs)
	}
}

func TestConv2DLoweredMatchesNaive(t *testing.T) {
	// 1x3x5x5 input, 2x3x3x3 weights, stride 1, no padding -> 1x2x3x3.
	ci, h, w, co, kk := 3, 5, 5, 2, 3
	oh, ow := h-kk+1, w-kk+1
	A := te.Placeholder("A", 1, ci, h, w)
	W := te.Placeholder("W", co, ci, kk, kk)
	C := te.Sum("C", []int{1, co, oh, ow}, []int{ci, kk, kk}, func(ax, r []ir.Expr) ir.Expr {
		return ir.Mul(
			A.Access(ax[0], r[0], ir.Add(ax[2], r[1]), ir.Add(ax[3], r[2])),
			W.Access(ax[1], r[0], r[1], r[2]))
	})
	s := te.NewSchedule(C)
	ax := s.SpatialAxes()
	s.Bind(ax[1], ir.ForThreadBlock)
	ho, hi := s.Split(ax[2], 2)
	s.Bind(ho, ir.ForThread)
	s.Unroll(hi)
	r := s.ReduceAxes()
	s.Unroll(r[1])
	s.Unroll(r[2])
	k := te.Lower("conv", s)

	a := make([]float32, ci*h*w)
	wt := make([]float32, co*ci*kk*kk)
	for i := range a {
		a[i] = float32(i%11) - 5
	}
	for i := range wt {
		wt[i] = float32(i%3) - 1
	}
	c := make([]float32, co*oh*ow)
	env := exec.NewEnv()
	env.Bind("A", a)
	env.Bind("W", wt)
	env.Bind("C", c)
	if err := exec.RunKernel(k, env); err != nil {
		t.Fatal(err)
	}
	for o := 0; o < co; o++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				var sum float32
				for i := 0; i < ci; i++ {
					for dy := 0; dy < kk; dy++ {
						for dx := 0; dx < kk; dx++ {
							sum += a[i*h*w+(y+dy)*w+(x+dx)] * wt[o*ci*kk*kk+i*kk*kk+dy*kk+dx]
						}
					}
				}
				if got := c[o*oh*ow+y*ow+x]; got != sum {
					t.Fatalf("conv[%d,%d,%d] = %v, want %v", o, y, x, got, sum)
				}
			}
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	_, _, C := matmul(4, 4, 4)
	mustPanic("schedule placeholder", func() { te.NewSchedule(te.Placeholder("P", 2)) })
	mustPanic("bad split factor", func() {
		s := te.NewSchedule(C)
		s.Split(s.SpatialAxes()[0], 0)
	})
	mustPanic("split stale axis", func() {
		s := te.NewSchedule(C)
		a := s.SpatialAxes()[0]
		s.Split(a, 2)
		s.Split(a, 2) // a is no longer a leaf
	})
	mustPanic("bind reduce axis", func() {
		s := te.NewSchedule(C)
		s.Bind(s.ReduceAxes()[0], ir.ForThread)
	})
	mustPanic("bind serial kind", func() {
		s := te.NewSchedule(C)
		s.Bind(s.SpatialAxes()[0], ir.ForSerial)
	})
	mustPanic("spatial inside reduce", func() {
		s := te.NewSchedule(C)
		ax, r := s.SpatialAxes(), s.ReduceAxes()
		s.Reorder(r[0], ax[0])
		te.Lower("bad", s)
	})
}

func TestLeafInfos(t *testing.T) {
	_, _, C := matmul(8, 8, 8)
	s := te.NewSchedule(C)
	ax := s.SpatialAxes()
	mo, mi := s.Split(ax[0], 4)
	s.Bind(mo, ir.ForThreadBlock)
	s.Vectorize(mi)
	infos := s.LeafInfos()
	if len(infos) != 4 {
		t.Fatalf("got %d leaves", len(infos))
	}
	if infos[0].Kind != ir.ForThreadBlock || infos[0].Extent != 2 {
		t.Fatalf("leaf 0 = %+v", infos[0])
	}
	if infos[1].Kind != ir.ForVectorized || infos[1].Extent != 4 {
		t.Fatalf("leaf 1 = %+v", infos[1])
	}
	if !infos[3].Reduce {
		t.Fatal("last leaf should be the reduction")
	}
}

func TestLoweredIRShape(t *testing.T) {
	_, _, C := matmul(4, 4, 4)
	s := te.NewSchedule(C)
	k := te.Lower("mm", s)
	p := ir.Print(k.Body)
	for _, want := range []string{"alloc float32 mm_acc[1] @local", "mm_acc[0] = 0f"} {
		if !strings.Contains(p, want) {
			t.Fatalf("lowered IR missing %q:\n%s", want, p)
		}
	}
	if len(k.Inputs) != 2 {
		t.Fatalf("inputs = %v", k.Inputs)
	}
}

// Property: any random pair of split factors over any matmul axis preserves
// the computed result.
func TestPropertyRandomSplitsPreserveSemantics(t *testing.T) {
	f := func(fa, fb uint8, axis uint8) bool {
		m, n, k := 6, 5, 7
		_, _, C := matmul(m, n, k)
		s := te.NewSchedule(C)
		axes := append(s.SpatialAxes(), s.ReduceAxes()...)
		a := axes[int(axis)%len(axes)]
		f1 := int(fa)%5 + 1
		f2 := int(fb)%3 + 1
		_, inner := s.Split(a, f1)
		s.Split(inner, f2)
		kern := te.Lower("mm", s)
		av := make([]float32, m*k)
		bv := make([]float32, k*n)
		for i := range av {
			av[i] = float32((i*13)%7) - 3
		}
		for i := range bv {
			bv[i] = float32((i*7)%5) - 2
		}
		cv := make([]float32, m*n)
		env := exec.NewEnv()
		env.Bind("A", av)
		env.Bind("B", bv)
		env.Bind("C", cv)
		if err := exec.RunKernel(kern, env); err != nil {
			return false
		}
		want := refMatmul(av, bv, m, n, k)
		for i := range want {
			if cv[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
