package tensor

import "fmt"

// Arena is a fixed-capacity bump allocator for tensor storage. A compiled
// execution plan sizes one arena up front (static memory planning), carves
// per-buffer slots out of it once, and then reuses the same storage on
// every inference — the steady-state run loop never touches the heap for
// intermediate tensors.
//
// Mixed-precision plans carve from three width-segregated pools (float32,
// binary16, int8) sized independently, so a half-precision slot really
// occupies half the bytes of its fp32 counterpart.
//
// An arena is not safe for concurrent allocation; allocate everything at
// session-build time and only read/write the carved tensors afterwards.
type Arena struct {
	buf   []float32
	off   int
	buf16 []uint16
	off16 int
	buf8  []int8
	off8  int
}

// NewArenaMixed allocates an arena with per-dtype pool capacities in
// elements: e32 float32s, e16 binary16s, e8 int8s.
func NewArenaMixed(e32, e16, e8 int) *Arena {
	a := &Arena{buf: make([]float32, e32)}
	if e16 > 0 {
		a.buf16 = make([]uint16, e16)
	}
	if e8 > 0 {
		a.buf8 = make([]int8, e8)
	}
	return a
}

// Alloc carves the next elems float32 values off the arena. The returned
// slice has full capacity equal to its length, so appends never bleed into
// the neighbouring slot. Alloc panics when the arena is exhausted: plans
// size arenas exactly, so running out is a planner bug, never a runtime
// condition to handle.
func (a *Arena) Alloc(elems int) []float32 {
	if a.off+elems > len(a.buf) {
		panic(fmt.Sprintf("tensor: arena exhausted: need %d elements, %d of %d left",
			elems, len(a.buf)-a.off, len(a.buf)))
	}
	s := a.buf[a.off : a.off+elems : a.off+elems]
	a.off += elems
	return s
}

// Alloc16 carves the next elems binary16 values off the fp16 pool.
func (a *Arena) Alloc16(elems int) []uint16 {
	if a.off16+elems > len(a.buf16) {
		panic(fmt.Sprintf("tensor: fp16 arena pool exhausted: need %d elements, %d of %d left",
			elems, len(a.buf16)-a.off16, len(a.buf16)))
	}
	s := a.buf16[a.off16 : a.off16+elems : a.off16+elems]
	a.off16 += elems
	return s
}

// Alloc8 carves the next elems int8 values off the int8 pool.
func (a *Arena) Alloc8(elems int) []int8 {
	if a.off8+elems > len(a.buf8) {
		panic(fmt.Sprintf("tensor: int8 arena pool exhausted: need %d elements, %d of %d left",
			elems, len(a.buf8)-a.off8, len(a.buf8)))
	}
	s := a.buf8[a.off8 : a.off8+elems : a.off8+elems]
	a.off8 += elems
	return s
}
