package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"partialreduce/internal/data"
	"partialreduce/internal/tensor"
)

// The per-sample MLP below is the reference the batched kernels must match
// bit for bit: one forward pass per sample, then backprop into dst with one
// AddOuter/Add/MulVecT per layer, a final Scale, and the naive one-row
// matrix-vector loops.

func refMulVec(m *tensor.Matrix, dst, x tensor.Vector) {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for j, w := range m.Row(i) {
			s += w * x[j]
		}
		dst[i] = s
	}
}

func refMulVecT(m *tensor.Matrix, dst, x tensor.Vector) {
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		dst.Axpy(x[i], m.Row(i))
	}
}

type refMLP struct {
	m      *MLP
	acts   []tensor.Vector
	deltas []tensor.Vector
	probs  tensor.Vector
}

func newRefMLP(m *MLP) *refMLP {
	r := &refMLP{m: m, probs: tensor.NewVector(m.spec.Classes)}
	for _, sz := range m.sizes {
		r.acts = append(r.acts, tensor.NewVector(sz))
		r.deltas = append(r.deltas, tensor.NewVector(sz))
	}
	return r
}

func (r *refMLP) forward(x tensor.Vector) tensor.Vector {
	m := r.m
	r.acts[0].CopyFrom(x)
	last := len(m.sizes) - 1
	for l := 0; l < last; l++ {
		out := r.acts[l+1]
		refMulVec(m.ws[l], out, r.acts[l])
		out.Add(m.bs[l])
		if l+1 < last {
			for i, v := range out {
				if v < 0 {
					out[i] = 0
				}
			}
		}
	}
	return r.acts[last]
}

func (r *refMLP) gradient(dst tensor.Vector, b *data.Batch) float64 {
	m := r.m
	dst.Zero()
	gws := make([]*tensor.Matrix, len(m.ws))
	gbs := make([]tensor.Vector, len(m.bs))
	off := 0
	for l := range m.ws {
		in, out := m.sizes[l], m.sizes[l+1]
		gws[l] = tensor.MatrixFrom(out, in, dst[off:off+out*in])
		off += out * in
		gbs[l] = dst[off : off+out]
		off += out
	}
	last := len(m.sizes) - 1
	var totalLoss float64
	for i, x := range b.X {
		logits := r.forward(x)
		totalLoss += tensor.LogSumExp(logits) - logits[b.Y[i]]
		tensor.Softmax(r.probs, logits)
		d := r.deltas[last]
		d.CopyFrom(r.probs)
		d[b.Y[i]] -= 1
		for l := last - 1; l >= 0; l-- {
			gws[l].AddOuter(1, r.deltas[l+1], r.acts[l])
			gbs[l].Add(r.deltas[l+1])
			if l > 0 {
				refMulVecT(m.ws[l], r.deltas[l], r.deltas[l+1])
				for j, a := range r.acts[l] {
					if a <= 0 {
						r.deltas[l][j] = 0
					}
				}
			}
		}
	}
	dst.Scale(1 / float64(len(b.X)))
	return totalLoss / float64(len(b.X))
}

// sparseBatch is smallBatch with about one feature in eight set to 0, so
// that signed-zero products reach the accumulators.
func sparseBatch(rng *rand.Rand, dim, classes, n int) *data.Batch {
	b := smallBatch(rng, dim, classes, n)
	for _, x := range b.X {
		for j := range x {
			if rng.Intn(8) == 0 {
				x[j] = 0
			}
		}
	}
	return b
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkBitIdentical runs Gradient, Loss, forward and Predict on m and the
// per-sample reference and fails on the first differing bit.
func checkBitIdentical(t *testing.T, name string, m *MLP, b *data.Batch) {
	t.Helper()
	ref := newRefMLP(m)
	want := tensor.NewVector(m.NumParams())
	wantLoss := ref.gradient(want, b)

	got := tensor.NewVector(m.NumParams())
	got.Fill(math.NaN()) // every element must be overwritten
	if loss := m.Gradient(got, b); !sameBits(loss, wantLoss) {
		t.Fatalf("%s: loss %v, reference %v", name, loss, wantLoss)
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: gradient[%d] = %v (%#x), reference %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	var refLoss float64
	m.grow(1)
	for s, x := range b.X {
		logits, wantLogits := m.forward(s, x), ref.forward(x)
		for k := range wantLogits {
			if !sameBits(logits[k], wantLogits[k]) {
				t.Fatalf("%s: sample %d logit %d = %v, reference %v", name, s, k, logits[k], wantLogits[k])
			}
		}
		refLoss += tensor.LogSumExp(wantLogits) - wantLogits[b.Y[s]]
		if p, wantP := m.Predict(x), wantLogits.ArgMax(); p != wantP {
			t.Fatalf("%s: sample %d Predict %d, reference %d", name, s, p, wantP)
		}
	}
	if loss, wantL := m.Loss(b), refLoss/float64(len(b.X)); !sameBits(loss, wantL) {
		t.Fatalf("%s: Loss %v, reference %v", name, loss, wantL)
	}
}

// The two benchmarked shapes: the wide live model at its batch of 4 and the
// Table 1 proxy at its batch of 16.
var perfShapes = []struct {
	name  string
	spec  Spec
	batch int
}{
	{"wide-32x2048x256x10-B4", Spec{Inputs: 32, Hidden: []int{2048, 256}, Classes: 10}, 4},
	{"table1-32x24x10-B16", Spec{Inputs: 32, Hidden: []int{24}, Classes: 10}, 16},
}

// The batched, blocked MLP must reproduce the per-sample reference bit for
// bit: no hidden layer, one, and three; widths off the four-row block;
// every batch size 1…17 on one model (so the scratch grows and is then
// reused at a smaller size); and the two benchmarked shapes.
func TestGradientBitIdenticalToReference(t *testing.T) {
	allSizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 3}
	type tc struct {
		spec    Spec
		batches []int
	}
	cases := []tc{
		{Spec{Inputs: 5, Classes: 3}, allSizes},
		{Spec{Inputs: 7, Hidden: []int{5}, Classes: 3}, allSizes},
		{Spec{Inputs: 6, Hidden: []int{9, 5, 7}, Classes: 4}, allSizes},
		{Spec{Inputs: 8, Hidden: []int{12}, Classes: 2}, allSizes},
	}
	for _, sh := range perfShapes {
		cases = append(cases, tc{sh.spec, []int{sh.batch}})
	}
	rng := rand.New(rand.NewSource(21))
	for ci, c := range cases {
		m := NewMLP(c.spec, int64(ci)+30)
		for _, n := range c.batches {
			b := sparseBatch(rng, c.spec.Inputs, c.spec.Classes, n)
			checkBitIdentical(t, fmt.Sprintf("spec %+v B=%d", c.spec, n), m, b)
		}
	}
}

// After one warm-up call at the same batch size, Gradient and Predict run
// entirely on the model's scratch.
func TestMLPGradientAllocFree(t *testing.T) {
	for i, sh := range perfShapes {
		m := NewMLP(sh.spec, int64(i)+50)
		b := smallBatch(rand.New(rand.NewSource(23)), sh.spec.Inputs, sh.spec.Classes, sh.batch)
		g := tensor.NewVector(m.NumParams())
		m.Gradient(g, b)
		if avg := testing.AllocsPerRun(20, func() { m.Gradient(g, b) }); avg != 0 {
			t.Errorf("%s: Gradient allocates %.1f times per call, want 0", sh.name, avg)
		}
		if avg := testing.AllocsPerRun(20, func() { m.Predict(b.X[0]) }); avg != 0 {
			t.Errorf("%s: Predict allocates %.1f times per call, want 0", sh.name, avg)
		}
	}
}

func BenchmarkMLPGradient(b *testing.B) {
	for i, sh := range perfShapes {
		b.Run(sh.name, func(b *testing.B) {
			m := NewMLP(sh.spec, int64(i)+60)
			batch := smallBatch(rand.New(rand.NewSource(24)), sh.spec.Inputs, sh.spec.Classes, sh.batch)
			g := tensor.NewVector(m.NumParams())
			b.ReportAllocs()
			for b.Loop() {
				m.Gradient(g, batch)
			}
		})
	}
}

func BenchmarkMLPPredict(b *testing.B) {
	for i, sh := range perfShapes {
		b.Run(sh.name, func(b *testing.B) {
			m := NewMLP(sh.spec, int64(i)+60)
			x := smallBatch(rand.New(rand.NewSource(24)), sh.spec.Inputs, sh.spec.Classes, 1).X[0]
			b.ReportAllocs()
			for b.Loop() {
				m.Predict(x)
			}
		})
	}
}
