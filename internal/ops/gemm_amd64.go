package ops

import (
	"unsafe"

	"unigpu/internal/cpu"
)

// gemmTileAVX2 is gemmTileGo in assembly (gemm_amd64.s) over k-step panels
// of float32 or (codes) int8; noescape lets gemmMicro keep c on its stack.
//
//go:noescape
func gemmTileAVX2(c, a, b unsafe.Pointer, k int, codes bool)

// gemmTile adds the product of an A row panel (len k*gemmMR) and a B column
// panel (len k*gemmNR) into c with the register tile this host is best at:
// the assembly wherever cpu.Vector says it runs.
func gemmTile[A gemmAcc, E gemmElem](c *[gemmMR * gemmNR]A, ap, bp []E) {
	if k := len(bp) / gemmNR; cpu.Vector && len(ap) >= k*gemmMR { // the assembly checks no bounds
		gemmTileAVX2(unsafe.Pointer(c), unsafe.Pointer(unsafe.SliceData(ap)), unsafe.Pointer(unsafe.SliceData(bp)), k, unsafe.Sizeof(ap[0]) == 1)
	} else {
		gemmTileGo(c, ap, bp)
	}
}
