package ops

import "unigpu/internal/tensor"

// PrepareConv and RunInto are the fp32 shorthands this package's tests use;
// the product prepares and runs every conv through PrepareConvDType and
// RunIntoEpilogue.

// PrepareConv resolves kernel k for workload w (KernelAuto picks
// DefaultKernel; unsupported choices fall back to KernelDirect) and packs
// weight into the kernel's layout, at fp32 storage.
func PrepareConv(w ConvWorkload, k ConvKernel, weight *tensor.Tensor) *PreparedConv {
	return PrepareConvDType(w, k, weight, tensor.Float32)
}

// RunInto executes the prepared convolution into out. scratch may be nil
// (or short), in which case the kernel allocates its own.
func (p *PreparedConv) RunInto(out, in, bias *tensor.Tensor, scratch []float32) {
	p.RunIntoEpilogue(out, in, bias, nil, scratch, nil, false)
}
