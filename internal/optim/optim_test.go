package optim

import (
	"fmt"
	"math"
	"testing"

	"partialreduce/internal/tensor"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{LR: 0},
		{LR: -1},
		{LR: 0.1, Momentum: 1},
		{LR: 0.1, Momentum: -0.1},
		{LR: 0.1, WeightDecay: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
	if err := Paper().Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
}

func TestPlainSGDStep(t *testing.T) {
	o := NewSGD(Config{LR: 0.5}, 2)
	p := tensor.Vector{1, 2}
	g := tensor.Vector{2, -2}
	o.Update(p, g, 1)
	if p[0] != 0 || p[1] != 3 {
		t.Fatalf("plain step: got %v", p)
	}
	if o.Step() != 1 {
		t.Fatalf("step count %d", o.Step())
	}
}

func TestMomentumAccumulates(t *testing.T) {
	o := NewSGD(Config{LR: 1, Momentum: 0.5}, 1)
	p := tensor.Vector{0}
	g := tensor.Vector{1}
	o.Update(p, g, 1) // v=1, p=-1
	o.Update(p, g, 1) // v=1.5, p=-2.5
	if math.Abs(p[0]-(-2.5)) > 1e-12 {
		t.Fatalf("momentum: got %v want -2.5", p[0])
	}
}

func TestWeightDecay(t *testing.T) {
	o := NewSGD(Config{LR: 1, WeightDecay: 0.1}, 1)
	p := tensor.Vector{10}
	g := tensor.Vector{0}
	o.Update(p, g, 1) // effective grad = 0 + 0.1*10 = 1
	if math.Abs(p[0]-9) > 1e-12 {
		t.Fatalf("weight decay: got %v want 9", p[0])
	}
}

func TestScaleAffectsSingleUpdate(t *testing.T) {
	o := NewSGD(Config{LR: 1}, 1)
	p := tensor.Vector{0}
	o.Update(p, tensor.Vector{1}, 0.25)
	if p[0] != -0.25 {
		t.Fatalf("scaled update: got %v", p[0])
	}
	o.Update(p, tensor.Vector{1}, 1)
	if p[0] != -1.25 {
		t.Fatalf("followup update: got %v", p[0])
	}
}

func TestStepDecaySchedule(t *testing.T) {
	s := StepDecay{Every: 10, Factor: 0.1}
	cases := map[int]float64{0: 1, 9: 1, 10: 0.1, 19: 0.1, 20: 0.01}
	for step, want := range cases {
		if got := s.Multiplier(step); math.Abs(got-want) > 1e-15 {
			t.Errorf("Multiplier(%d)=%v want %v", step, got, want)
		}
	}
	if (StepDecay{Every: 0, Factor: 0.1}).Multiplier(100) != 1 {
		t.Error("Every=0 should disable decay")
	}
}

func TestScheduledLR(t *testing.T) {
	o := NewSGD(Config{LR: 0.1, Schedule: StepDecay{Every: 2, Factor: 0.5}}, 1)
	p := tensor.Vector{0}
	g := tensor.Vector{1}
	if o.LR() != 0.1 {
		t.Fatalf("initial LR %v", o.LR())
	}
	o.Update(p, g, 1)
	o.Update(p, g, 1)
	if math.Abs(o.LR()-0.05) > 1e-15 {
		t.Fatalf("LR after 2 steps %v, want 0.05", o.LR())
	}
}

func TestResetAndClone(t *testing.T) {
	o := NewSGD(Config{LR: 1, Momentum: 0.9}, 2)
	p := tensor.Vector{0, 0}
	o.Update(p, tensor.Vector{1, 1}, 1)
	c := o.Clone()
	if c.Step() != 1 {
		t.Fatal("clone lost step count")
	}
	o.Reset()
	if o.Step() != 0 || o.velocity.NormInf() != 0 {
		t.Fatal("reset incomplete")
	}
	if c.velocity.NormInf() == 0 {
		t.Fatal("reset leaked into clone")
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	o := NewSGD(Config{LR: 1}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched sizes")
		}
	}()
	o.Update(tensor.Vector{1}, tensor.Vector{1, 2}, 1)
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid config")
		}
	}()
	NewSGD(Config{LR: -1}, 1)
}

// Momentum SGD on a quadratic must converge to the minimum.
func TestQuadraticConvergence(t *testing.T) {
	o := NewSGD(Config{LR: 0.1, Momentum: 0.9}, 1)
	p := tensor.Vector{5}
	g := tensor.NewVector(1)
	for k := 0; k < 500; k++ {
		g[0] = 2 * p[0] // d/dx x^2
		o.Update(p, g, 1)
	}
	if math.Abs(p[0]) > 1e-6 {
		t.Fatalf("did not converge: %v", p[0])
	}
}

func TestStateRestore(t *testing.T) {
	o := NewSGD(Config{LR: 1, Momentum: 0.9}, 2)
	o.Update(tensor.Vector{0, 0}, tensor.Vector{1, 2}, 1)
	vel, step := o.State()
	if step != 1 || vel[1] != 2 {
		t.Fatalf("state: %v %d", vel, step)
	}
	// State returns a copy.
	vel[0] = 99
	if v2, _ := o.State(); v2[0] == 99 {
		t.Fatal("State aliased internal buffer")
	}

	o2 := NewSGD(Config{LR: 1, Momentum: 0.9}, 2)
	if err := o2.Restore(tensor.Vector{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	// Restored optimizer continues identically to the original.
	p1, p2 := tensor.Vector{0, 0}, tensor.Vector{0, 0}
	o.Restore(tensor.Vector{1, 2}, 1)
	o.Update(p1, tensor.Vector{1, 1}, 1)
	o2.Update(p2, tensor.Vector{1, 1}, 1)
	if p1[0] != p2[0] || p1[1] != p2[1] {
		t.Fatalf("restored optimizer diverged: %v vs %v", p1, p2)
	}
	if err := o2.Restore(tensor.Vector{1}, 0); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := o2.Restore(nil, -1); err == nil {
		t.Fatal("negative step accepted")
	}
	if err := o2.Restore(nil, 0); err != nil {
		t.Fatal(err)
	}
	if v, s := o2.State(); s != 0 || v.NormInf() != 0 {
		t.Fatal("nil restore did not zero state")
	}
}

// referenceUpdate is the original one-expression-per-line SGD loop, kept to
// pin Update's rounding: same operations, same order.
func referenceUpdate(o *SGD, params, grad tensor.Vector, scale float64) {
	lr := o.LR() * scale
	mu, wd := o.cfg.Momentum, o.cfg.WeightDecay
	for i := range params {
		g := grad[i] + wd*params[i]
		o.velocity[i] = mu*o.velocity[i] + g
		params[i] -= lr * o.velocity[i]
	}
	o.step++
}

// Update must match the reference loop bit for bit over several steps with
// momentum, weight decay, a decaying schedule and a scaled learning rate.
func TestUpdateMatchesReference(t *testing.T) {
	cfg := Config{LR: 0.1, Momentum: 0.9, WeightDecay: 1e-4, Schedule: StepDecay{Every: 2, Factor: 0.1}}
	const n = 37
	got, want := NewSGD(cfg, n), NewSGD(cfg, n)
	pg, pw := tensor.NewVector(n), tensor.NewVector(n)
	for i := range pg {
		pg[i] = math.Sin(float64(i))
	}
	pw.CopyFrom(pg)
	grad := tensor.NewVector(n)
	for step := 0; step < 5; step++ {
		for i := range grad {
			grad[i] = math.Cos(float64(i*(step+1))) / 3
		}
		scale := 1 / float64(step+1)
		got.Update(pg, grad, scale)
		referenceUpdate(want, pw, grad, scale)
		for i := range pg {
			if math.Float64bits(pg[i]) != math.Float64bits(pw[i]) ||
				math.Float64bits(got.velocity[i]) != math.Float64bits(want.velocity[i]) {
				t.Fatalf("step %d element %d: params %v velocity %v, reference %v %v",
					step, i, pg[i], got.velocity[i], pw[i], want.velocity[i])
			}
		}
	}
}

func BenchmarkSGDUpdate(b *testing.B) {
	for _, n := range []int{1034, 594698} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			o := NewSGD(Paper(), n)
			p, g := tensor.NewVector(n), tensor.NewVector(n)
			g.Fill(1e-3)
			for b.Loop() {
				o.Update(p, g, 1)
			}
		})
	}
}
