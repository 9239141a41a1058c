package model

import (
	"math"
	"math/rand"
	"testing"

	"partialreduce/internal/data"
	"partialreduce/internal/tensor"
)

func smallBatch(rng *rand.Rand, dim, classes, n int) *data.Batch {
	b := &data.Batch{}
	for i := 0; i < n; i++ {
		x := tensor.NewVector(dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		b.X = append(b.X, x)
		b.Y = append(b.Y, rng.Intn(classes))
	}
	return b
}

func TestParamLayout(t *testing.T) {
	m := NewMLP(Spec{Inputs: 4, Hidden: []int{5}, Classes: 3}, 1)
	want := 5*4 + 5 + 3*5 + 3
	if m.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), want)
	}
	if len(m.Params()) != want {
		t.Fatalf("Params len = %d, want %d", len(m.Params()), want)
	}
	// Params is live storage: writing through it changes predictions.
	x := tensor.Vector{1, 2, 3, 4}
	m.grow(1)
	before := m.forward(0, x).Clone()
	m.Params().Fill(0)
	after := m.forward(0, x)
	if before.Sub(after); before.NormInf() == 0 {
		t.Fatal("zeroing Params did not change the forward pass")
	}
}

func TestSetParamsCopies(t *testing.T) {
	m := NewMLP(Spec{Inputs: 2, Classes: 2}, 1)
	p := m.Params().Clone()
	p.Fill(0.5)
	m.SetParams(p)
	p.Fill(-1) // must not leak into the model
	for _, v := range m.Params() {
		if v != 0.5 {
			t.Fatal("SetParams aliased caller storage")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMLP(Spec{Inputs: 3, Hidden: []int{4}, Classes: 2}, 2)
	c := m.Clone().(*MLP)
	c.Params().Fill(0)
	if m.Params().NormInf() == 0 {
		t.Fatal("Clone shares parameter storage")
	}
	// Clone's views must be bound to its own flat vector.
	rng := rand.New(rand.NewSource(3))
	b := smallBatch(rng, 3, 2, 8)
	g := tensor.NewVector(c.NumParams())
	c.Gradient(g, b)
	if m.Params().NormInf() == 0 {
		t.Fatal("gradient on clone corrupted original")
	}
}

// Finite-difference gradient check: the backprop gradient must match
// numerical differentiation of the loss.
func TestGradientFiniteDifference(t *testing.T) {
	specs := []Spec{
		{Inputs: 5, Classes: 3},                   // softmax regression
		{Inputs: 5, Hidden: []int{7}, Classes: 3}, // one hidden layer
		{Inputs: 4, Hidden: []int{6, 5}, Classes: 4},
	}
	rng := rand.New(rand.NewSource(4))
	for si, spec := range specs {
		m := NewMLP(spec, int64(si)+10)
		b := smallBatch(rng, spec.Inputs, spec.Classes, 6)
		g := tensor.NewVector(m.NumParams())
		m.Gradient(g, b)

		const h = 1e-5
		p := m.Params()
		// Check a deterministic sample of coordinates (all, for small nets).
		step := 1
		if m.NumParams() > 200 {
			step = m.NumParams() / 97
		}
		for i := 0; i < m.NumParams(); i += step {
			orig := p[i]
			p[i] = orig + h
			lp := m.Loss(b)
			p[i] = orig - h
			lm := m.Loss(b)
			p[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-g[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("spec %d coord %d: backprop %.8f vs numeric %.8f", si, i, g[i], num)
			}
		}
	}
}

func TestGradientReturnsLoss(t *testing.T) {
	m := NewMLP(Spec{Inputs: 3, Hidden: []int{4}, Classes: 3}, 5)
	rng := rand.New(rand.NewSource(6))
	b := smallBatch(rng, 3, 3, 10)
	g := tensor.NewVector(m.NumParams())
	if got, want := m.Gradient(g, b), m.Loss(b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Gradient loss %v != Loss %v", got, want)
	}
	if m.Gradient(g, &data.Batch{}) != 0 {
		t.Fatal("empty batch should produce zero loss")
	}
	if g.NormInf() != 0 {
		t.Fatal("empty batch should produce zero gradient")
	}
}

func TestGradientBufferMismatchPanics(t *testing.T) {
	m := NewMLP(Spec{Inputs: 2, Classes: 2}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong gradient buffer size")
		}
	}()
	m.Gradient(tensor.NewVector(1), &data.Batch{})
}

// SGD on a separable mixture must reach high accuracy: end-to-end sanity for
// forward, backward, and prediction together.
func TestTrainingConverges(t *testing.T) {
	ds, err := data.GaussianMixture(data.MixtureConfig{
		Classes: 3, Dim: 8, Examples: 900, Separation: 4, Noise: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.8)
	m := NewMLP(Spec{Inputs: 8, Hidden: []int{16}, Classes: 3}, 8)
	s := data.NewSampler(train, 9)
	g := tensor.NewVector(m.NumParams())
	var b *data.Batch
	for k := 0; k < 400; k++ {
		b = s.Sample(b, 32)
		m.Gradient(g, b)
		m.Params().Axpy(-0.1, g)
	}
	if acc := Accuracy(m, test); acc < 0.9 {
		t.Fatalf("accuracy after training = %.3f, want >= 0.9", acc)
	}
}

func TestSoftmaxRegressionMatchesClosedForm(t *testing.T) {
	// For a single example and zero weights, the CE gradient of the output
	// layer is (softmax(0) - onehot) xᵀ = (1/C - onehot) xᵀ.
	m := NewMLP(Spec{Inputs: 2, Classes: 2}, 1)
	m.Params().Zero()
	b := &data.Batch{X: []tensor.Vector{{1, 2}}, Y: []int{0}}
	g := tensor.NewVector(m.NumParams())
	m.Gradient(g, b)
	// Layout: W(2x2) then b(2). Row 0 = class 0.
	want := []float64{-0.5, -1.0, 0.5, 1.0, -0.5, 0.5}
	for i, w := range want {
		if math.Abs(g[i]-w) > 1e-12 {
			t.Fatalf("closed-form grad mismatch at %d: got %v want %v", i, g[i], w)
		}
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := NewMLP(Spec{Inputs: 2, Classes: 2}, 1)
	empty := &data.Dataset{X: tensor.NewMatrix(0, 2), Y: nil, Classes: 2}
	if Accuracy(m, empty) != 0 {
		t.Fatal("accuracy on empty dataset should be 0")
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{ResNet34, VGG19, DenseNet121, ResNet18, VGG16} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.WireBytes() != int64(p.WireParams)*4 {
			t.Errorf("%s: WireBytes mismatch", p.Name)
		}
		got, err := ProfileByName(p.Name)
		if err != nil || got.WireParams != p.WireParams {
			t.Errorf("ProfileByName(%s) failed: %v", p.Name, err)
		}
	}
	if _, err := ProfileByName("alexnet"); err == nil {
		t.Error("expected error for unknown profile")
	}
	bad := Profile{Name: "x"}
	if bad.Validate() == nil {
		t.Error("zero profile should not validate")
	}
	// The paper's compute/communication split: VGGs are comm-bound relative
	// to ResNets (more wire bytes per compute second).
	if VGG19.BatchCompute/float64(VGG19.WireParams) >= ResNet34.BatchCompute/float64(ResNet34.WireParams) {
		t.Error("VGG-19 should be more communication-bound than ResNet-34")
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewMLP(Spec{Inputs: 4, Hidden: []int{8}, Classes: 3}, 42)
	b := NewMLP(Spec{Inputs: 4, Hidden: []int{8}, Classes: 3}, 42)
	for i := range a.Params() {
		if a.Params()[i] != b.Params()[i] {
			t.Fatal("same seed produced different init")
		}
	}
	c := NewMLP(Spec{Inputs: 4, Hidden: []int{8}, Classes: 3}, 43)
	diff := false
	for i := range a.Params() {
		if a.Params()[i] != c.Params()[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical init")
	}
}

func TestSpecValidate(t *testing.T) {
	for _, s := range []Spec{
		{Inputs: 0, Classes: 3},
		{Inputs: 4, Classes: 1},
		{Inputs: 4, Hidden: []int{0}, Classes: 3},
		{Inputs: 4, Hidden: []int{8, -2}, Classes: 3},
	} {
		if s.Validate() == nil {
			t.Errorf("spec %+v accepted", s)
		}
		func() {
			defer func() {
				if _, ok := recover().(error); !ok {
					t.Errorf("NewMLP(%+v) did not panic with the validation error", s)
				}
			}()
			NewMLP(s, 1)
		}()
	}
	for _, s := range []Spec{{Inputs: 1, Classes: 2}, {Inputs: 4, Hidden: []int{1, 8}, Classes: 3}} {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", s, err)
		}
	}
}
