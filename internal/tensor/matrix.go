package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix backed by a single contiguous slice.
type Matrix struct {
	Rows, Cols int
	Data       Vector // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix negative dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: NewVector(rows * cols)}
}

// MatrixFrom wraps data as a rows×cols matrix without copying. It panics if
// len(data) != rows*cols.
func MatrixFrom(rows, cols int, data Vector) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: MatrixFrom %dx%d needs %d elements, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a vector sharing m's backing storage.
func (m *Matrix) Row(i int) Vector { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// Zero sets every element to 0.
func (m *Matrix) Zero() { m.Data.Zero() }

// MulVec writes m·x into dst. dst must have length m.Rows and x length
// m.Cols; dst must not alias x.
//
// Rows go four at a time: one pass over x feeds four independent
// accumulators instead of one latency-bound add chain. Each output still
// sums w·x from 0 in ascending column order, so the rounding is exactly
// that of the one-row-at-a-time loop. With AVX, eight rows go per
// assembly call, one accumulator per YMM lane, in the same order.
func (m *Matrix) MulVec(dst, x Vector) {
	checkLen(len(dst), m.Rows)
	checkLen(len(x), m.Cols)
	i := 0
	if useSIMD {
		for ; i+8 <= m.Rows; i += 8 {
			mulVec8AVX(dst[i:i+8], m.Data[i*m.Cols:(i+8)*m.Cols], x)
		}
	}
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Row(i)[:len(x)]
		r1 := m.Row(i + 1)[:len(x)]
		r2 := m.Row(i + 2)[:len(x)]
		r3 := m.Row(i + 3)[:len(x)]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		r := m.Row(i)[:len(x)]
		var s float64
		for j, xj := range x {
			s += r[j] * xj
		}
		dst[i] = s
	}
}

// MulVecT writes mᵀ·x into dst. dst must have length m.Cols and x length
// m.Rows; dst must not alias x.
//
// Each pass over dst folds in four rows of m. Every element still starts
// at 0 and receives += x[i]·m[i][j] in ascending i, the rounding of one
// Axpy per row. With AVX, each four-row pass is one accum4AVX call (four
// elements of dst per YMM register).
func (m *Matrix) MulVecT(dst, x Vector) {
	checkLen(len(dst), m.Cols)
	checkLen(len(x), m.Rows)
	dst.Zero()
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		r0 := m.Row(i)[:len(dst)]
		r1 := m.Row(i + 1)[:len(dst)]
		r2 := m.Row(i + 2)[:len(dst)]
		r3 := m.Row(i + 3)[:len(dst)]
		if useSIMD {
			accum4AVX(dst, r0, r1, r2, r3, x0, x1, x2, x3, 1, false)
			continue
		}
		for j, d := range dst {
			d += x0 * r0[j]
			d += x1 * r1[j]
			d += x2 * r2[j]
			d += x3 * r3[j]
			dst[j] = d
		}
	}
	for ; i < m.Rows; i++ {
		dst.Axpy(x[i], m.Row(i))
	}
}

// AddOuter accumulates the rank-1 update m += a · x·yᵀ where x has length
// m.Rows and y length m.Cols.
func (m *Matrix) AddOuter(a float64, x, y Vector) {
	checkLen(len(x), m.Rows)
	checkLen(len(y), m.Cols)
	for i := 0; i < m.Rows; i++ {
		m.Row(i).Axpy(a*x[i], y)
	}
}

// MeanOuter overwrites m with the mean outer product (1/B)·Σ_s xs[s]·ys[s]ᵀ
// over B = len(xs) = len(ys) pairs; each xs[s] has length m.Rows and each
// ys[s] length m.Cols; it panics if B is 0 or a length differs. This is the
// weight gradient of a dense layer over a batch (deltas × inputs).
//
// Each row is finished before the next is touched, taking four samples per
// pass, and the 1/B scale is folded into the last pass. Every element
// starts at 0, receives += xs[s][i]·ys[s][j] in sample order and is then
// multiplied by 1/B: bit-identical to Zero, one AddOuter per sample, then
// Scale — without the two extra passes over m.
func (m *Matrix) MeanOuter(xs, ys []Vector) {
	if len(xs) == 0 {
		panic("tensor: MeanOuter of no samples")
	}
	checkLen(len(xs), len(ys))
	for s := range xs {
		checkLen(len(xs[s]), m.Rows)
		checkLen(len(ys[s]), m.Cols)
	}
	inv := 1 / float64(len(xs))
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for s := 0; s < len(xs); s += 4 {
			k := min(4, len(xs)-s)
			scale := 1.0
			if s+k == len(xs) {
				scale = inv
			}
			accumRow(row, xs[s:s+k], ys[s:s+k], i, s == 0, scale)
		}
	}
}

// accumRow adds xs[t][i]·ys[t][j] to row[j] for the (at most four) samples
// t in order, starting each element from 0 when fresh, and stores the sum
// times scale (exactly the sum when scale is 1). Four samples run on AVX
// where available, one row element per lane.
func accumRow(row Vector, xs, ys []Vector, i int, fresh bool, scale float64) {
	if len(xs) == 4 {
		c0, c1, c2, c3 := xs[0][i], xs[1][i], xs[2][i], xs[3][i]
		y0, y1, y2, y3 := ys[0][:len(row)], ys[1][:len(row)], ys[2][:len(row)], ys[3][:len(row)]
		if useSIMD {
			accum4AVX(row, y0, y1, y2, y3, c0, c1, c2, c3, scale, fresh)
			return
		}
		for j, g := range row {
			if fresh {
				g = 0
			}
			g += c0 * y0[j]
			g += c1 * y1[j]
			g += c2 * y2[j]
			g += c3 * y3[j]
			row[j] = g * scale
		}
		return
	}
	for j, g := range row {
		if fresh {
			g = 0
		}
		for t, x := range xs {
			g += x[i] * ys[t][j]
		}
		row[j] = g * scale
	}
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// FillGlorot initializes m with Glorot/Xavier-uniform entries drawn from rng:
// U(-l, l) with l = sqrt(6/(fanIn+fanOut)).
func (m *Matrix) FillGlorot(rng *rand.Rand, fanIn, fanOut int) {
	l := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * l
	}
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for i := 0; i < m.Rows; i++ {
			s += "\n "
			for j := 0; j < m.Cols; j++ {
				s += fmt.Sprintf("%8.4f", m.At(i, j))
			}
		}
	}
	return s
}
