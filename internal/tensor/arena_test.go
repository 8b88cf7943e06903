package tensor

import "testing"

func TestArenaCarvesDisjointSlots(t *testing.T) {
	a := NewArenaMixed(10, 0, 0)
	x := a.Alloc(4)
	y := a.Alloc(6)
	for i := range x {
		x[i] = 1
	}
	for i := range y {
		y[i] = 2
	}
	for i, v := range x {
		if v != 1 {
			t.Fatalf("slot x clobbered at %d: %v", i, v)
		}
	}
	// Full-capacity slices: append must reallocate, never bleed into y.
	x2 := append(x, 9)
	if y[0] != 2 {
		t.Fatalf("append into x bled into y: %v", y[0])
	}
	_ = x2
}

func TestArenaExhaustionPanics(t *testing.T) {
	a := NewArenaMixed(4, 0, 0)
	a.Alloc(3)
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation must panic: plans size arenas exactly")
		}
	}()
	a.Alloc(2)
}
