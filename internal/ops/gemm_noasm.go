//go:build !amd64

package ops

// gemmTile is the portable register tile: the assembly tiles are amd64's.
func gemmTile[A gemmAcc, E gemmElem](c *[gemmMR * gemmNR]A, ap, bp []E) { gemmTileGo(c, ap, bp) }
