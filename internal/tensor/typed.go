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
// exactly as GetF would one by one, a row primitive at a time (rows.go).
func (t *Tensor) LoadF(dst []float32, off int) {
	switch t.dtype {
	case Float16:
		WidenHalf(dst, t.half[off:])
	case Int8:
		dequantizeRow(dst, t.qdata[off:], t.scale)
	default:
		copy(dst, t.data[off:off+len(dst)])
	}
}

// ViewF returns elements [off, off+n) as float32 values for reading: the
// tensor's own storage when that is fp32, otherwise buf[:n] after LoadF. It
// is how a kernel reads every dtype through one loop without copying fp32.
func (t *Tensor) ViewF(buf []float32, off, n int) []float32 {
	if t.dtype == Float32 {
		return t.data[off : off+n]
	}
	t.LoadF(buf[:n], off)
	return buf[:n]
}

// StoreF narrows src into the elements starting at flat index off, exactly
// as SetF would one by one, a row primitive at a time.
func (t *Tensor) StoreF(off int, src []float32) {
	switch t.dtype {
	case Float16:
		NarrowHalf(t.half[off:off+len(src)], src)
	case Int8:
		quantizeRow(t.qdata[off:off+len(src)], src, t.scale)
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
// agree (int8 only under equal scales), otherwise converted exactly as
// dst.SetF(i, src.GetF(j)) would, one row primitive over the whole range
// where one end is fp32 or the pair is the fp16-to-int8 cast, a widened run
// at a time for what is left (from int8 to fp16 or to another scale). It
// never allocates.
func CopyRange(dst *Tensor, dstOff int, src *Tensor, srcOff, n int) {
	switch {
	case dst.dtype == src.dtype && (dst.dtype != Int8 || dst.scale == src.scale):
		switch dst.dtype {
		case Float16:
			copy(dst.half[dstOff:dstOff+n], src.half[srcOff:])
		case Int8:
			copy(dst.qdata[dstOff:dstOff+n], src.qdata[srcOff:])
		default:
			copy(dst.data[dstOff:dstOff+n], src.data[srcOff:])
		}
	case dst.dtype == Float32:
		src.LoadF(dst.data[dstOff:dstOff+n], srcOff)
	case src.dtype == Float32:
		dst.StoreF(dstOff, src.data[srcOff:srcOff+n])
	case src.dtype == Float16: // to int8
		quantizeHalfRow(dst.qdata[dstOff:dstOff+n], src.half[srcOff:], dst.scale)
	default:
		var buf [256]float32
		for i := 0; i < n; i += len(buf) {
			run := buf[:min(len(buf), n-i)]
			src.LoadF(run, srcOff+i)
			dst.StoreF(dstOff+i, run)
		}
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
