//go:build !amd64

package tensor

// No assembly off amd64: each *Vec converts nothing and the portable loop
// of its caller does the whole run.

func widenHalfVec(dst []float32, src []uint16) int                { return 0 }
func narrowHalfVec(dst []uint16, src []float32) int               { return 0 }
func quantizeVec(dst []int8, src []float32, scale float32) int    { return 0 }
func quantizeHalfVec(dst []int8, src []uint16, scale float32) int { return 0 }
func dequantizeVec(dst []float32, src []int8, scale float32) int  { return 0 }
