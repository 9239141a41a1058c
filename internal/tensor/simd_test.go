package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// setSIMD forces the MLP kernel dispatch and returns a func restoring it.
func setSIMD(on bool) (restore func()) {
	old := useSIMD
	useSIMD = on
	return func() { useSIMD = old }
}

// runBoth calls simd with the SIMD kernels selected, then generic with the
// generic loops, and restores the dispatch.
func runBoth(simd, generic func()) {
	restore := setSIMD(true)
	simd()
	useSIMD = false
	generic()
	restore()
}

// sameBitsOrNaN is sameBits, except that any NaN matches any NaN. When both
// operands of an add or multiply are NaN, x86 returns the first operand's
// payload, and the Go compiler orders the operands of commutative ops as
// register allocation suits it, differently even within one loop body
// (matrix.go's four-row MulVecT block). The payload is thus not part of the
// accumulation-order contract; every other bit is.
func sameBitsOrNaN(t *testing.T, what string, got, want Vector) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), generic %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// specials are the inputs the kernels must round like the scalar loops:
// NaN, both infinities, both zeros, subnormals, and magnitudes whose
// products underflow into the subnormal range.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -3e-310, 2.5e-308, 1e-160, -1e-160, math.MaxFloat64,
}

// specialVec returns n values, mostly normals with about one in four drawn
// from specials, as a slice starting one element into its allocation, so
// vector loads do not start at the allocation's alignment.
func specialVec(rng *rand.Rand, n int) Vector {
	v := NewVector(n + 1)[1:]
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// offsetNaNs returns n NaNs, offset by one element like specialVec.
func offsetNaNs(n int) Vector { return nanVec(n + 1)[1:] }

// Property: on every shape up to 13×13 (every row residue mod 8, every
// column residue mod 4) and two multi-block shapes, the AVX MulVec and
// MulVecT write the same bits as the generic loops, for inputs full of
// NaN, ±Inf, ±0 and subnormals and a NaN-prefilled destination.
func TestSIMDMulVecMatchesGeneric(t *testing.T) {
	if !useSIMD {
		t.Skip("no AVX kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(29))
	type shape struct{ rows, cols int }
	var shapes []shape
	for rows := 0; rows <= 13; rows++ {
		for cols := 0; cols <= 13; cols++ {
			shapes = append(shapes, shape{rows, cols})
		}
	}
	shapes = append(shapes, shape{24, 32}, shape{43, 29})
	for _, s := range shapes {
		for trial := 0; trial < 4; trial++ {
			m := MatrixFrom(s.rows, s.cols, specialVec(rng, s.rows*s.cols))
			x, xt := specialVec(rng, s.cols), specialVec(rng, s.rows)

			got, want := offsetNaNs(s.rows), offsetNaNs(s.rows)
			runBoth(func() { m.MulVec(got, x) }, func() { m.MulVec(want, x) })
			sameBitsOrNaN(t, fmt.Sprintf("MulVec %dx%d", s.rows, s.cols), got, want)

			gotT, wantT := offsetNaNs(s.cols), offsetNaNs(s.cols)
			runBoth(func() { m.MulVecT(gotT, xt) }, func() { m.MulVecT(wantT, xt) })
			sameBitsOrNaN(t, fmt.Sprintf("MulVecT %dx%d", s.rows, s.cols), gotT, wantT)
		}
	}
}

// Property: the AVX four-sample accumRow writes the same bits as the
// generic loop for widths 0…13 and 32, fresh or accumulating into a row of
// special values, with scale 1 and scale ≠ 1.
func TestSIMDAccumRowMatchesGeneric(t *testing.T) {
	if !useSIMD {
		t.Skip("no AVX kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(31))
	for _, width := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 32} {
		for _, fresh := range []bool{true, false} {
			for _, scale := range []float64{1, 1.0 / 3, -0.25} {
				xs, ys := make([]Vector, 4), make([]Vector, 4)
				for s := range xs {
					xs[s], ys[s] = specialVec(rng, 3), specialVec(rng, width)
				}
				start := offsetNaNs(width)
				if !fresh {
					start = specialVec(rng, width)
				}
				got, want := start.Clone(), start.Clone()
				for i := 0; i < 3; i++ {
					runBoth(func() { accumRow(got, xs, ys, i, fresh, scale) },
						func() { accumRow(want, xs, ys, i, fresh, scale) })
					sameBitsOrNaN(t, fmt.Sprintf("accumRow width=%d fresh=%v scale=%v i=%d", width, fresh, scale, i), got, want)
				}
			}
		}
	}
}

// benchLayer is one dense layer of a perfbench model: W is out×in, and a
// batch of inputs and output deltas.
type benchLayer struct {
	name      string
	w         *Matrix
	in, out   Vector
	back      Vector // MulVecT destination
	grad      *Matrix
	ins, dels []Vector
}

// benchLayers are the four layer shapes of the perfbench models (32→24→10,
// batch 16, for sim-table1; 32→2048→256→10's first two, batch 4, for
// live-wide).
func benchLayers() []benchLayer {
	rng := rand.New(rand.NewSource(41))
	var ls []benchLayer
	for _, s := range []struct{ in, out, batch int }{{32, 24, 16}, {24, 10, 16}, {32, 2048, 4}, {2048, 256, 4}} {
		l := benchLayer{
			name: fmt.Sprintf("%dto%d", s.in, s.out),
			w:    MatrixFrom(s.out, s.in, randVec(rng, s.out*s.in)),
			in:   randVec(rng, s.in), out: randVec(rng, s.out), back: NewVector(s.in),
			grad: NewMatrix(s.out, s.in),
		}
		for b := 0; b < s.batch; b++ {
			l.ins = append(l.ins, randVec(rng, s.in))
			l.dels = append(l.dels, randVec(rng, s.out))
		}
		ls = append(ls, l)
	}
	return ls
}

// benchKernel runs body on every perfbench layer shape, once on the SIMD
// kernels and once on the generic loops.
func benchKernel(b *testing.B, body func(l *benchLayer)) {
	for _, l := range benchLayers() {
		for _, simd := range []bool{true, false} {
			name := l.name + "/generic"
			if simd {
				name = l.name + "/simd"
			}
			b.Run(name, func(b *testing.B) {
				if simd && !useSIMD {
					b.Skip("no AVX kernels on this CPU")
				}
				defer setSIMD(simd)()
				b.ReportAllocs()
				for b.Loop() {
					body(&l)
				}
			})
		}
	}
}

func BenchmarkMulVec(b *testing.B) {
	benchKernel(b, func(l *benchLayer) { l.w.MulVec(l.out, l.in) })
}

func BenchmarkMulVecT(b *testing.B) {
	benchKernel(b, func(l *benchLayer) { l.w.MulVecT(l.back, l.out) })
}

func BenchmarkMeanOuter(b *testing.B) {
	benchKernel(b, func(l *benchLayer) { l.grad.MeanOuter(l.dels, l.ins) })
}
