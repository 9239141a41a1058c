// Package model provides the trainable models for the reproduction and the
// workload profiles that stand in for the paper's CNNs.
//
// Models expose their parameters as a single flat tensor.Vector so that
// collectives (all-reduce, partial reduce, PS push/pull) operate on one
// contiguous buffer, exactly as gradient buckets do in a real DDP stack.
// Layer weight matrices are views into that flat vector: reading Params()
// and writing through SetParams copy nothing structural.
//
// The statistical side of every experiment runs real stochastic gradient
// descent on these models; the hardware side (per-batch seconds, bytes on
// the wire) comes from Profile, which carries the true parameter counts of
// the paper's CNNs (ResNet-18/34, VGG-16/19, DenseNet-121).
package model

import (
	"fmt"
	"math/rand"

	"partialreduce/internal/data"
	"partialreduce/internal/tensor"
)

// Model is a trainable classifier over flat parameters.
type Model interface {
	// Params returns the flat parameter vector. The returned slice is the
	// live storage: mutating it mutates the model.
	Params() tensor.Vector
	// SetParams copies p into the model's parameters.
	SetParams(p tensor.Vector)
	// NumParams returns the trainable parameter count.
	NumParams() int
	// Gradient computes the average gradient of the cross-entropy loss over
	// the batch into dst (len NumParams) and returns the average loss.
	Gradient(dst tensor.Vector, b *data.Batch) float64
	// Loss returns the average cross-entropy loss over the batch.
	Loss(b *data.Batch) float64
	// Predict returns the predicted class for x.
	Predict(x tensor.Vector) int
	// Clone returns an independent deep copy.
	Clone() Model
}

// Accuracy returns the fraction of ds classified correctly by m.
func Accuracy(m Model, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Example(i)
		if m.Predict(x) == y {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// Builder constructs a model from an initialization seed. Spec (MLP) and
// ConvSpec (convolutional) both implement it; cluster and live configs
// accept any Builder.
type Builder interface {
	Build(seed int64) Model
}

// Spec constructs a model; it is how experiments describe the proxy model
// independent of its random initialization.
type Spec struct {
	Inputs  int   // feature dimension
	Hidden  []int // hidden layer widths; empty means softmax regression
	Classes int
}

// Validate reports whether the spec is usable: at least one input, two
// classes, and every hidden layer at least one unit wide.
func (s Spec) Validate() error {
	if s.Inputs < 1 || s.Classes < 2 {
		return fmt.Errorf("model: invalid spec %+v", s)
	}
	for l, h := range s.Hidden {
		if h < 1 {
			return fmt.Errorf("model: hidden layer %d has width %d, want >= 1", l, h)
		}
	}
	return nil
}

// Build constructs the model with Glorot initialization from seed.
func (s Spec) Build(seed int64) Model {
	return NewMLP(s, seed)
}

// MLP is a fully-connected network with ReLU hidden activations and a
// softmax cross-entropy output. Hidden may be empty, giving multinomial
// logistic regression.
type MLP struct {
	spec  Spec
	flat  tensor.Vector // all parameters, contiguous
	ws    []*tensor.Matrix
	bs    []tensor.Vector
	sizes []int // layer widths including input and output
	// Per-sample scratch, grown on first use to the largest batch seen
	// (Predict and Loss use sample 0). acts[l][s] is sample s's
	// post-activation at layer l and deltas[l][s] its backprop delta; both
	// are nil at l == 0, where the activation is the input itself.
	acts   [][]tensor.Vector
	deltas [][]tensor.Vector
}

// NewMLP builds an MLP per spec with Glorot-uniform weights seeded by seed.
// It panics on an invalid spec.
func NewMLP(spec Spec, seed int64) *MLP {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	sizes := append([]int{spec.Inputs}, spec.Hidden...)
	sizes = append(sizes, spec.Classes)

	total := 0
	for l := 0; l+1 < len(sizes); l++ {
		total += sizes[l+1]*sizes[l] + sizes[l+1]
	}
	m := &MLP{spec: spec, flat: tensor.NewVector(total), sizes: sizes}
	m.bindViews()

	rng := rand.New(rand.NewSource(seed))
	for l, w := range m.ws {
		w.FillGlorot(rng, sizes[l], sizes[l+1])
	}
	return m
}

// bindViews points ws/bs at slices of flat.
func (m *MLP) bindViews() {
	m.ws = m.ws[:0]
	m.bs = m.bs[:0]
	off := 0
	for l := 0; l+1 < len(m.sizes); l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		m.ws = append(m.ws, tensor.MatrixFrom(out, in, m.flat[off:off+out*in]))
		off += out * in
		m.bs = append(m.bs, m.flat[off:off+out])
		off += out
	}
}

// grow makes room for per-sample scratch of a batch of n.
func (m *MLP) grow(n int) {
	if m.acts != nil && len(m.acts[1]) >= n {
		return
	}
	m.acts = make([][]tensor.Vector, len(m.sizes))
	m.deltas = make([][]tensor.Vector, len(m.sizes))
	for l := 1; l < len(m.sizes); l++ {
		m.acts[l] = make([]tensor.Vector, n)
		m.deltas[l] = make([]tensor.Vector, n)
		for s := 0; s < n; s++ {
			m.acts[l][s] = tensor.NewVector(m.sizes[l])
			m.deltas[l][s] = tensor.NewVector(m.sizes[l])
		}
	}
}

// Params implements Model.
func (m *MLP) Params() tensor.Vector { return m.flat }

// SetParams implements Model.
func (m *MLP) SetParams(p tensor.Vector) { m.flat.CopyFrom(p) }

// NumParams implements Model.
func (m *MLP) NumParams() int { return len(m.flat) }

// Clone implements Model.
func (m *MLP) Clone() Model {
	c := &MLP{spec: m.spec, flat: m.flat.Clone(), sizes: m.sizes}
	c.bindViews()
	return c
}

// forward runs the network on x as sample s of the scratch, leaving each
// layer's post-activation in m.acts[l][s] and returning the logits. The
// scratch must hold at least s+1 samples.
func (m *MLP) forward(s int, x tensor.Vector) tensor.Vector {
	last := len(m.sizes) - 1
	in := x
	for l := 0; l < last; l++ {
		out := m.acts[l+1][s]
		m.ws[l].MulVec(out, in)
		out.Add(m.bs[l])
		if l+1 < last { // ReLU on hidden layers only
			for i, v := range out {
				if v < 0 {
					out[i] = 0
				}
			}
		}
		in = out
	}
	return in
}

// Predict implements Model.
func (m *MLP) Predict(x tensor.Vector) int {
	m.grow(1)
	return m.forward(0, x).ArgMax()
}

// Loss implements Model.
func (m *MLP) Loss(b *data.Batch) float64 {
	if len(b.X) == 0 {
		return 0
	}
	m.grow(1)
	var total float64
	for i, x := range b.X {
		logits := m.forward(0, x)
		total += tensor.LogSumExp(logits) - logits[b.Y[i]]
	}
	return total / float64(len(b.X))
}

// Gradient implements Model. dst receives the average gradient; the average
// loss is returned.
//
// The batch runs layer-major: a forward pass per sample fills the
// per-sample activations and output deltas, then the backward pass writes
// each layer's gradient rows once (MeanOuter) and pushes all samples'
// deltas one layer down. Every gradient element sums its per-sample terms
// from 0 in batch order and is then scaled by 1/B, so the result is
// bit-identical to accumulating one sample at a time.
func (m *MLP) Gradient(dst tensor.Vector, b *data.Batch) float64 {
	if len(dst) != len(m.flat) {
		panic(fmt.Sprintf("model: gradient buffer %d, want %d", len(dst), len(m.flat)))
	}
	n := len(b.X)
	if n == 0 {
		dst.Zero()
		return 0
	}
	m.grow(n)

	last := len(m.sizes) - 1
	var totalLoss float64
	for s, x := range b.X {
		logits := m.forward(s, x)
		totalLoss += tensor.LogSumExp(logits) - logits[b.Y[s]]
		// Output delta: softmax(logits) - onehot(y).
		d := m.deltas[last][s]
		tensor.Softmax(d, logits)
		d[b.Y[s]] -= 1
	}

	// Gradient views into dst mirroring the parameter layout, walked from
	// the output layer down.
	off := len(dst)
	for l := last - 1; l >= 0; l-- {
		in, out := m.sizes[l], m.sizes[l+1]
		off -= out
		gb := dst[off : off+out]
		off -= out * in
		gw := tensor.Matrix{Rows: out, Cols: in, Data: dst[off : off+out*in]}

		ds := m.deltas[l+1][:n]
		inputs := b.X
		if l > 0 {
			inputs = m.acts[l][:n]
		}
		gw.MeanOuter(ds, inputs)
		tensor.Mean(gb, ds)
		if l > 0 {
			for s, d := range ds {
				below := m.deltas[l][s]
				m.ws[l].MulVecT(below, d)
				// ReLU derivative on the hidden activation.
				for j, a := range inputs[s] {
					if a <= 0 {
						below[j] = 0
					}
				}
			}
		}
	}
	return totalLoss / float64(n)
}
