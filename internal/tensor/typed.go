package tensor

import "fmt"

// Typed (reduced-precision) tensor construction and access. The float32
// fast paths elsewhere in the stack are untouched: a Float32 tensor
// behaves exactly as before, and reduced-precision tensors only flow
// through dtype-aware code.

// NewTyped allocates a zero-filled tensor of the given dtype and shape.
func NewTyped(dt DType, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	t := &Tensor{shape: s, strides: s.Strides(), dtype: dt}
	switch dt {
	case Float16:
		t.half = make([]uint16, s.NumElements())
	case Int8:
		t.qdata = make([]int8, s.NumElements())
		t.scale = 1
	default:
		t.data = make([]float32, s.NumElements())
	}
	return t
}

// FromHalf wraps a binary16 backing slice (not copied) in a Float16
// tensor. It panics if the length does not match the shape.
func FromHalf(h []uint16, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if len(h) != s.NumElements() {
		panic(fmt.Sprintf("tensor: half data length %d does not match shape %v (%d elements)",
			len(h), s, s.NumElements()))
	}
	return &Tensor{shape: s, strides: s.Strides(), half: h, dtype: Float16}
}

// FromInt8 wraps a quantized backing slice (not copied) in an Int8 tensor
// with the given per-tensor dequantization scale.
func FromInt8(q []int8, scale float32, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if len(q) != s.NumElements() {
		panic(fmt.Sprintf("tensor: int8 data length %d does not match shape %v (%d elements)",
			len(q), s, s.NumElements()))
	}
	if scale == 0 {
		scale = 1
	}
	return &Tensor{shape: s, strides: s.Strides(), qdata: q, dtype: Int8, scale: scale}
}

// DType returns the tensor's element storage type.
func (t *Tensor) DType() DType { return t.dtype }

// Half exposes the binary16 backing buffer of a Float16 tensor.
func (t *Tensor) Half() []uint16 {
	if t.dtype != Float16 {
		panic("tensor: Half() on " + t.dtype.String() + " tensor")
	}
	return t.half
}

// Int8Data exposes the quantized backing buffer of an Int8 tensor.
func (t *Tensor) Int8Data() []int8 {
	if t.dtype != Int8 {
		panic("tensor: Int8Data() on " + t.dtype.String() + " tensor")
	}
	return t.qdata
}

// Scale returns the Int8 dequantization scale (1 for other dtypes).
func (t *Tensor) Scale() float32 {
	if t.dtype != Int8 || t.scale == 0 {
		return 1
	}
	return t.scale
}

// SetScale sets the Int8 dequantization scale. The stored codes are not
// rescaled; callers set the scale before writing values through SetF.
func (t *Tensor) SetScale(s float32) {
	if s == 0 {
		s = 1
	}
	t.scale = s
}

// GetF returns element i (flat, row-major) widened to float32.
func (t *Tensor) GetF(i int) float32 {
	switch t.dtype {
	case Float16:
		return F16Decode(t.half[i])
	case Int8:
		return t.scale * float32(t.qdata[i])
	default:
		return t.data[i]
	}
}

// SetF stores v into element i (flat, row-major), narrowing to the
// tensor's dtype: round-to-nearest-even for fp16, saturating symmetric
// quantization under the tensor's scale for int8.
func (t *Tensor) SetF(i int, v float32) {
	switch t.dtype {
	case Float16:
		t.half[i] = F16Encode(v)
	case Int8:
		t.qdata[i] = QuantizeInt8(v, t.scale)
	default:
		t.data[i] = v
	}
}

// LoadF widens the len(dst) elements starting at flat index off into dst,
// exactly as GetF would one by one, with the dtype resolved once per run.
func (t *Tensor) LoadF(dst []float32, off int) {
	switch t.dtype {
	case Float16:
		for i, h := range t.half[off : off+len(dst)] {
			dst[i] = f16Table[h]
		}
	case Int8:
		for i, q := range t.qdata[off : off+len(dst)] {
			dst[i] = t.scale * float32(q)
		}
	default:
		copy(dst, t.data[off:off+len(dst)])
	}
}

// StoreF narrows src into the elements starting at flat index off, exactly
// as SetF would one by one, with the dtype resolved once per run.
func (t *Tensor) StoreF(off int, src []float32) {
	switch t.dtype {
	case Float16:
		for i, v := range src {
			t.half[off+i] = F16Encode(v)
		}
	case Int8:
		for i, v := range src {
			t.qdata[off+i] = QuantizeInt8(v, t.scale)
		}
	default:
		copy(t.data[off:off+len(src)], src)
	}
}

// Copy copies src into dst, converting element type when the dtypes
// differ (fp16 narrowing rounds to nearest even; int8 narrowing quantizes
// under dst's scale, so set it first). Shapes must match. Same-dtype
// copies are raw buffer copies; dst's int8 scale is taken from src then.
// Copy never allocates, so the pooled runtime uses it on arena buffers.
func Copy(dst, src *Tensor) {
	if !dst.shape.Equal(src.shape) {
		panic(fmt.Sprintf("tensor: Copy shape mismatch %v vs %v", dst.shape, src.shape))
	}
	if dst.dtype == Int8 && src.dtype == Int8 {
		dst.scale = src.scale
	}
	CopyRange(dst, 0, src, 0, src.Size())
}

// CopyRange copies n elements of src from flat index srcOff to dst from
// flat index dstOff, whatever the two shapes: raw when the storage formats
// agree (int8 only under equal scales), otherwise widened and narrowed a
// run at a time exactly as dst.SetF(i, src.GetF(j)) would. It never
// allocates.
func CopyRange(dst *Tensor, dstOff int, src *Tensor, srcOff, n int) {
	switch {
	case dst.dtype != src.dtype || dst.dtype == Int8 && dst.scale != src.scale:
		var buf [256]float32
		for i := 0; i < n; i += len(buf) {
			run := buf[:min(len(buf), n-i)]
			src.LoadF(run, srcOff+i)
			dst.StoreF(dstOff+i, run)
		}
	case dst.dtype == Float16:
		copy(dst.half[dstOff:dstOff+n], src.half[srcOff:])
	case dst.dtype == Int8:
		copy(dst.qdata[dstOff:dstOff+n], src.qdata[srcOff:])
	default:
		copy(dst.data[dstOff:dstOff+n], src.data[srcOff:])
	}
}

// Convert returns a copy of t in the given dtype. An Int8 target uses the
// provided scale (0 derives a symmetric scale from t's max-abs value).
func Convert(t *Tensor, dt DType, scale float32) *Tensor {
	c := NewTyped(dt, t.shape...)
	if dt == Int8 {
		if scale == 0 {
			maxAbs := 0.0
			n := t.Size()
			for i := 0; i < n; i++ {
				v := float64(t.GetF(i))
				if v < 0 {
					v = -v
				}
				if v > maxAbs {
					maxAbs = v
				}
			}
			scale = Int8Scale(maxAbs)
		}
		c.scale = scale
	}
	Copy(c, t)
	return c
}
