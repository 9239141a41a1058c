//go:build !amd64

package tensor

// useSIMD is false off amd64: the generic Go loops are the only kernels.
var useSIMD = false

func mulVec8AVX(dst, w, x []float64) { panic("tensor: no SIMD kernels on this architecture") }

func accum4AVX(dst, y0, y1, y2, y3 []float64, c0, c1, c2, c3, scale float64, fresh bool) {
	panic("tensor: no SIMD kernels on this architecture")
}
