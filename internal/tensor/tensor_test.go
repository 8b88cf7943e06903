package tensor

import (
	"math"
	"testing"
)

func TestShapeNumElements(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{}, 1},
		{Shape{3}, 3},
		{Shape{2, 3, 4}, 24},
		{Shape{1, 1, 1, 1}, 1},
	}
	for _, c := range cases {
		if got := c.s.NumElements(); got != c.want {
			t.Errorf("NumElements(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeEqualAndClone(t *testing.T) {
	a := Shape{2, 3}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone should equal original")
	}
	b[0] = 9
	if a.Equal(b) {
		t.Fatal("mutated clone should differ")
	}
	if a.Equal(Shape{2, 3, 1}) {
		t.Fatal("different ranks must not be equal")
	}
}

func TestStridesRowMajor(t *testing.T) {
	st := Shape{2, 3, 4}.Strides()
	want := []int{12, 4, 1}
	for i := range want {
		if st[i] != want[i] {
			t.Fatalf("strides = %v, want %v", st, want)
		}
	}
}

func TestAtSetOffset(t *testing.T) {
	tt := New(2, 3, 4)
	tt.Set(7.5, 1, 2, 3)
	if got := tt.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if off := tt.Offset(1, 2, 3); off != 23 {
		t.Fatalf("Offset = %d, want 23", off)
	}
	if tt.Data()[23] != 7.5 {
		t.Fatal("backing buffer not updated")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestWrongRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong index rank")
		}
	}()
	New(2, 2).At(1)
}

func TestFromDataLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromData(make([]float32, 5), 2, 3)
}

func TestReshapeSharesBuffer(t *testing.T) {
	a := New(2, 6)
	b := a.Reshape(3, 4)
	b.Set(1.5, 2, 3)
	if a.At(1, 5) != 1.5 {
		t.Fatal("reshape must share the backing buffer")
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(5)
}

func TestCloneIndependence(t *testing.T) {
	a := New(4)
	a.Fill(2)
	b := a.Clone()
	b.Set(9, 0)
	if a.At(0) != 2 {
		t.Fatal("clone must not alias original")
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a, b := New(100), New(100)
	a.FillRandom(42)
	b.FillRandom(42)
	if !AllClose(a, b, 0) {
		t.Fatal("same seed must give identical contents")
	}
	c := New(100)
	c.FillRandom(43)
	if AllClose(a, c, 0) {
		t.Fatal("different seeds should differ")
	}
	for _, v := range a.Data() {
		if v < -1 || v >= 1 {
			t.Fatalf("value %v outside [-1,1)", v)
		}
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a, b := New(3), New(3)
	a.Data()[1] = 1
	b.Data()[1] = 1.1
	d := MaxAbsDiff(a, b)
	if math.Abs(d-0.1/1.1) > 1e-6 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
	if !math.IsInf(MaxAbsDiff(New(2), New(3)), 1) {
		t.Fatal("shape mismatch must be +Inf")
	}
}
