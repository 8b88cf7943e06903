// Package cpu is the one probe of the host's vector instructions. The
// assembly kernels of internal/ops (the GEMM tile, the row axpy) and of
// internal/tensor (the binary16 and int8 row conversions) are all selected
// by it, once, at package init: no flag, environment variable or build tag
// chooses a kernel.
package cpu

// Vector reports whether the assembly kernels run: the CPU has AVX2 and
// F16C and the OS saves YMM state. It is false off amd64, where only the
// portable loops exist. Tests clear it to hold the portable loops, which
// are the assembly's reference, to the same checks on this host.
var Vector = hasVector()
