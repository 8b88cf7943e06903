// Package tensor provides the dense n-dimensional array substrate used by
// every layer of the stack: the operator library computes on Tensors, the
// lowered-IR interpreter reads and writes their backing buffers, and the
// graph runtime moves them between (simulated) devices.
//
// Tensors are always float32 row-major over an explicit Shape. Data layouts
// relevant to CNN inference (NCHW, NHWC, the blocked NCHW[x]c family used by
// the graph tuner, and the weight layouts OIHW / OIHW[x]o) are first-class:
// see layout.go for conversions.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Shape is the extent of each tensor dimension, outermost first.
type Shape []int

// NumElements returns the product of all dimensions. An empty shape is a
// scalar and has one element.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Strides returns row-major strides for the shape.
func (s Shape) Strides() []int {
	st := make([]int, len(s))
	acc := 1
	for i := len(s) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= s[i]
	}
	return st
}

// Tensor is a dense n-dimensional array. The default (and overwhelmingly
// common) element type is float32; reduced-precision tensors carry a DType
// tag and use the matching backing slice instead (see dtype.go). Exactly
// one backing slice is non-nil.
type Tensor struct {
	shape   Shape
	strides []int
	data    []float32 // Float32 backing
	half    []uint16  // Float16 backing (IEEE 754 binary16 bits)
	qdata   []int8    // Int8 backing
	dtype   DType
	scale   float32 // Int8 dequantization scale: value = scale * q
}

// New allocates a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	return &Tensor{shape: s, strides: s.Strides(), data: make([]float32, s.NumElements())}
}

// FromData wraps the given backing slice (not copied) in a tensor of the
// given shape. It panics if the length does not match the shape.
func FromData(data []float32, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if len(data) != s.NumElements() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)",
			len(data), s, s.NumElements()))
	}
	return &Tensor{shape: s, strides: s.Strides(), data: data}
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() Shape { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return t.shape.NumElements() }

// Data exposes the flat float32 backing buffer in row-major order. It
// panics on a reduced-precision tensor: dtype-blind code must never read a
// half/int8 buffer as float32, so the mistake surfaces loudly. Use GetF /
// SetF (or Half / Int8) for dtype-aware access.
func (t *Tensor) Data() []float32 {
	if t.dtype != Float32 {
		panic("tensor: Data() on " + t.dtype.String() + " tensor; use GetF/SetF or the typed accessor")
	}
	return t.data
}

// Offset computes the flat index for the given coordinates.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: got %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", x, t.shape[i], i))
		}
		off += x * t.strides[i]
	}
	return off
}

// At returns the element at the given coordinates (widened to float32 for
// reduced-precision tensors).
func (t *Tensor) At(idx ...int) float32 { return t.GetF(t.Offset(idx...)) }

// Set stores v at the given coordinates (narrowed to the tensor's dtype).
func (t *Tensor) Set(v float32, idx ...int) { t.SetF(t.Offset(idx...), v) }

// Clone returns a deep copy with the same dtype (and scale).
func (t *Tensor) Clone() *Tensor {
	c := NewTyped(t.dtype, t.shape...)
	c.scale = t.scale
	switch t.dtype {
	case Float16:
		copy(c.half, t.half)
	case Int8:
		copy(c.qdata, t.qdata)
	default:
		copy(c.data, t.data)
	}
	return c
}

// Reshape returns a view with a new shape sharing the same backing buffer.
// The element count must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if s.NumElements() != t.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d) to %v (%d)",
			t.shape, t.Size(), s, s.NumElements()))
	}
	return &Tensor{shape: s, strides: s.Strides(),
		data: t.data, half: t.half, qdata: t.qdata, dtype: t.dtype, scale: t.scale}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	n := t.Size()
	for i := 0; i < n; i++ {
		t.SetF(i, v)
	}
}

// FillFunc sets element i (flat index) to f(i).
func (t *Tensor) FillFunc(f func(i int) float32) {
	n := t.Size()
	for i := 0; i < n; i++ {
		t.SetF(i, f(i))
	}
}

// FillRandom fills the tensor with deterministic pseudo-random values in
// [-1, 1) derived from seed. The same seed always yields the same contents.
func (t *Tensor) FillRandom(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := t.Size()
	for i := 0; i < n; i++ {
		t.SetF(i, rng.Float32()*2-1)
	}
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if t.dtype == Float32 && len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	if t.dtype != Float32 {
		return fmt.Sprintf("Tensor[%s]%v[%d elements]", t.dtype, t.shape, t.Size())
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.shape, len(t.data))
}

// AllClose reports whether the two tensors have the same shape and all
// elements within the given absolute-or-relative tolerance.
func AllClose(a, b *Tensor, tol float64) bool {
	return MaxAbsDiff(a, b) <= tol
}

// MaxAbsDiff returns the maximum elementwise |a-b| scaled by
// max(1, |a|, |b|); +Inf if shapes differ. The operands may have different
// dtypes (reduced-precision values are widened first), which is how the
// mixed-precision tolerance harness compares fp16/int8 outputs against the
// fp32 reference.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.shape.Equal(b.shape) {
		return math.Inf(1)
	}
	worst := 0.0
	n := a.Size()
	for i := 0; i < n; i++ {
		av, bv := float64(a.GetF(i)), float64(b.GetF(i))
		den := math.Max(1, math.Max(math.Abs(av), math.Abs(bv)))
		if d := math.Abs(av-bv) / den; d > worst {
			worst = d
		}
	}
	return worst
}
