package tensor

// useSIMD routes the MLP kernels (MulVec, MulVecT and the four-sample
// accumRow behind MeanOuter) to their AVX bodies. It is decided once, here;
// tests flip it to compare the assembly against the generic Go loops.
var useSIMD = hasAVX()

// hasAVX reports whether the CPU has AVX and the OS saves YMM state
// (CPUID.1:ECX.OSXSAVE and .AVX, then XCR0 bits 1 and 2).
func hasAVX() bool

// mulVec8AVX writes w·x into dst[:8], where w holds 8 rows of len(x)
// columns, row-major. Each YMM lane is one row's accumulator: it starts at
// +0 and adds w[r][j]*x[j] (a multiply, then an add) in ascending j — the
// scalar loop's rounding, lane by lane.
//
//go:noescape
func mulVec8AVX(dst, w, x []float64)

// accum4AVX sets dst[j] = ((((g + c0*y0[j]) + c1*y1[j]) + c2*y2[j]) +
// c3*y3[j]) * scale for every j < len(dst), where g is +0 when fresh and
// dst[j] otherwise. Each y must hold at least len(dst) elements. Lanes are
// columns, so every element sees exactly the scalar sequence of operations.
//
//go:noescape
func accum4AVX(dst, y0, y1, y2, y3 []float64, c0, c1, c2, c3, scale float64, fresh bool)
