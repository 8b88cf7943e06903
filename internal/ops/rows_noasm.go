//go:build !amd64

package ops

// The row kernels' inner loops are the portable ones: the assembly is
// amd64's.

func axpy[A gemmAcc](acc, x []A, w A)                            { axpyGo(acc, x, w) }
func reluRow(run []float32)                                      { reluGo(run) }
func dequantRow(dst []float32, src []int32, scale, bias float32) { dequantGo(dst, src, scale, bias) }
func widenCodes(dst []int32, src []int8)                         { widenCodesGo(dst, src) }
