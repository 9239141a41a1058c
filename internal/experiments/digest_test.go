package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
)

// resultDigest hashes every field of r at full precision: floats enter as
// their IEEE-754 bit patterns, so a change in the last bit of any loss,
// accuracy or virtual time changes the digest.
func resultDigest(r *metrics.Result) string {
	h := sha256.New()
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	fmt.Fprintf(h, "%s|%s|%t|%x|%d|%x\n", r.Strategy, r.Workload, r.Converged,
		bits(r.RunTime), r.Updates, bits(r.FinalAccuracy))
	for _, p := range r.Curve {
		fmt.Fprintf(h, "%x|%d|%x\n", bits(p.Time), p.Updates, bits(p.Accuracy))
	}
	c := r.Comms
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%x|%x\n", c.Ops, c.BytesSent, c.BytesRecv,
		c.Segments, c.Retries, c.Timeouts, c.Aborts, bits(c.ReduceScatterS), bits(c.AllGatherS))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTable1CellDigestGolden pins three seeded Table 1 cells, one per model
// profile, to the digest of their full-precision results. Every model
// gradient and evaluation feeds these numbers, so any change to the proxy
// model's floating-point summation order (or to the simulator) fails here
// loudly instead of silently shifting the paper's tables. If a change is
// meant to alter the numerics, replace the digests and say why in the
// commit.
func TestTable1CellDigestGolden(t *testing.T) {
	cases := []struct {
		profile  model.Profile
		hl       int
		strategy string
		want     string
	}{
		{model.ResNet34, 3, "CON P=3", "dc4cf48e415175bb4dc98c0d231b8e93a74f88c163ee3c7712249a933c26c662"},
		{model.VGG19, 3, "DYN P=5", "a883cf9c054a26b06acc2fdee19671cf848917f48f2fba2f539a4df525af3e9d"},
		{model.DenseNet121, 2, "AR", "0fcd24940d4b4eb28a92900c0f482a6c2bacb60274ebbb9e40c92c726b0465a0"},
	}
	for _, tc := range cases {
		cell := Cell{Workload: CIFAR10Workload(tc.profile), N: 8, Env: EnvHL, HL: tc.hl, Seed: 1}
		res, err := runCell(Options{}, cell, tc.strategy)
		if err != nil {
			t.Fatalf("%s HL=%d %s: %v", tc.profile.Name, tc.hl, tc.strategy, err)
		}
		if got := resultDigest(res); got != tc.want {
			t.Errorf("%s HL=%d %s: digest %s, want %s (updates=%d acc=%v)",
				tc.profile.Name, tc.hl, tc.strategy, got, tc.want, res.Updates, res.FinalAccuracy)
		}
	}
}
