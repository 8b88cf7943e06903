package ops

import "unsafe"

// simdTile says whether gemmTile runs the AVX2 assembly tiles. It is read
// off the CPU once, at package init; no flag or environment variable
// selects a tile. Tests clear it to run the portable tile on this host.
var simdTile = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func cpuHasAVX2() bool

// gemmTileAVX2 is gemmTileGo in assembly (gemm_amd64.s) over k-step panels
// of float32 or (codes) int8; noescape lets gemmMicro keep c on its stack.
//
//go:noescape
func gemmTileAVX2(c, a, b unsafe.Pointer, k int, codes bool)

// gemmTile adds the product of an A row panel (len k*gemmMR) and a B column
// panel (len k*gemmNR) into c with the register tile this host is best at.
func gemmTile[A gemmAcc, E gemmElem](c *[gemmMR * gemmNR]A, ap, bp []E) {
	if k := len(bp) / gemmNR; simdTile && len(ap) >= k*gemmMR { // the assembly checks no bounds
		gemmTileAVX2(unsafe.Pointer(c), unsafe.Pointer(unsafe.SliceData(ap)), unsafe.Pointer(unsafe.SliceData(bp)), k, unsafe.Sizeof(ap[0]) == 1)
	} else {
		gemmTileGo(c, ap, bp)
	}
}
