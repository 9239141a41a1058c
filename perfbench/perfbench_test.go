package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"partialreduce/internal/data"
	"partialreduce/internal/experiments"
	"partialreduce/internal/live"
	"partialreduce/internal/model"
	"partialreduce/internal/optim"
	"partialreduce/internal/trace"
	"partialreduce/internal/transport"
)

// BENCHMARK.json must describe exactly the workloads and metrics the
// program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads; the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q; the program's is %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// The benchmark's hand-built grid must be the real Table 1 sweep.
func TestTable1CellsMatchExperiments(t *testing.T) {
	const seed = simGridSeed
	want, err := experiments.Table1(experiments.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cells := table1Cells(seed)
	n := 0
	for _, b := range want.Blocks {
		for _, hl := range b.HLs {
			n += len(b.Cells[hl])
		}
	}
	if len(cells) != n {
		t.Fatalf("benchmark grid has %d cells, experiments.Table1 %d", len(cells), n)
	}
	i := 0
	for _, b := range want.Blocks {
		for _, hl := range b.HLs {
			for _, s := range experiments.Table1Strategies {
				c := cells[i]
				i++
				got, _, err := runSimCell(c, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if c.strategy != s || c.cell.HL != hl || !reflect.DeepEqual(got, b.Cells[hl][s]) {
					t.Errorf("cell %d (%s HL=%d %s): result differs from experiments.Table1", i, b.Model, hl, s)
				}
			}
		}
	}
}

// A traced (probed) cell and a ticked one return exactly the bare result;
// the probe sees the model layer's work and the ticker stamps every
// Gradient call plus the run's start and end.
func TestProbedSimCellIsIdentical(t *testing.T) {
	c := table1Cells(simGridSeed)[7] // CON P=3, ResNet-34, HL=1
	bare, _, err := runSimCell(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st modelStats
	probed, _, err := runSimCell(c, &st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, probed) {
		t.Fatalf("probed cell result differs:\n bare   %v\n probed %v", bare, probed)
	}
	if len(st.grad) == 0 || st.predictCalls.Load() == 0 {
		t.Fatalf("probe saw %d gradient and %d predict calls", len(st.grad), st.predictCalls.Load())
	}
	tk := &ticker{clk: newClock()}
	ticked, _, err := runSimCell(c, nil, tk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, ticked) {
		t.Fatalf("ticked cell result differs:\n bare   %v\n ticked %v", bare, ticked)
	}
	if len(tk.stamps) != len(st.grad)+2 {
		t.Fatalf("ticker stamped %d times, want %d gradient calls + 2", len(tk.stamps), len(st.grad))
	}
}

// The wrapped endpoint keeps every optional interface of transport.Mem, so
// a run that loses a worker recovers through the same paths.
func TestProbedEndpointKeepsFailureHandling(t *testing.T) {
	var st transportStats
	world := memWorld(4, &st)
	for _, ep := range world {
		_, dr := ep.(transport.DeadlineRecver)
		_, op := ep.(transport.OpPurger)
		_, pf := ep.(transport.PeerFailer)
		_, oa := ep.(transport.OpAborter)
		_, sf := ep.(transport.SelfFailer)
		if !dr || !op || !pf || !oa || !sf {
			t.Fatalf("wrapped endpoint drops an optional interface: deadline %t purge %t peer %t abort %t self %t", dr, op, pf, oa, sf)
		}
	}
	ds, err := data.GaussianMixture(data.MixtureConfig{Classes: 4, Dim: 12, Examples: 800, Separation: 3.2, Noise: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.8)
	rep, err := live.Run(live.Config{
		N: 4, P: 2, Spec: model.Spec{Inputs: 12, Hidden: []int{16}, Classes: 4}, Seed: 5,
		Train: train, Test: test, BatchSize: 16,
		Optimizer: optim.Config{LR: 0.05, Momentum: 0.9}, Iters: 80,
		Crash: map[int]int{3: 20}, FailTimeout: 2 * time.Second,
	}, world)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 1 || rep.Completed[3] || !rep.Completed[0] || !rep.Completed[1] || !rep.Completed[2] {
		t.Fatalf("crash not handled on a wrapped world: failures %d completed %v", rep.Failures, rep.Completed)
	}
	if st.sendCalls.Load() == 0 || st.recvCalls.Load() == 0 {
		t.Fatalf("probe saw %d sends, %d receives", st.sendCalls.Load(), st.recvCalls.Load())
	}
}

// Each correctness check turns a deliberately wrong output into a counted
// failure.
func TestChecksCountWrongOutputs(t *testing.T) {
	tl := &tally{layer: map[string]float64{}}
	rep := &live.Report{Groups: 10, FinalAccuracy: 0.9, Completed: []bool{true, true, true, true}}
	tl.check(checkLive(rep, 0.8))
	wrong := *rep
	wrong.Completed = []bool{true, false, true, true}
	tl.check(checkLive(&wrong, 0.8))
	wrong = *rep
	wrong.FinalAccuracy = 0.5
	tl.check(checkLive(&wrong, 0.8))
	wrong = *rep
	wrong.Comms.Retries = 1
	tl.check(checkLive(&wrong, 0.8))

	if tl.attempted != 4 || tl.failed != 3 {
		t.Fatalf("counted %d failures in %d checks, want 3 in 4", tl.failed, tl.attempted)
	}
}

// A simulator cell whose result changed between repeats is a failure.
func TestNondeterminismCountsAsFailure(t *testing.T) {
	s := &simWorkload{cells: table1Cells(simGridSeed)[:3]}
	tl := &tally{layer: map[string]float64{}}
	for unit := 0; unit < 2; unit++ {
		if err := s.setUp(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.run(); err != nil {
			t.Fatal(err)
		}
		if unit == 1 {
			s.results[2].Updates++
		}
		s.collect(tl, nil, 1)
	}
	if tl.failed != 1 || tl.attempted != 6 {
		t.Fatalf("sim: %d failures in %d checks, want 1 in 6", tl.failed, tl.attempted)
	}
}

// A traced live unit fits its trace ring, and an overflowing ring fails
// the unit.
func TestTraceRingSizing(t *testing.T) {
	w := newLiveWide(2).(*liveWorkload)
	p := newProbes()
	if err := w.setUp(p); err != nil {
		t.Fatal(err)
	}
	if _, err := w.run(); err != nil {
		t.Fatal(err)
	}
	tl := &tally{layer: map[string]float64{}}
	w.collect(tl, p, 1)
	if tl.failed != 0 || p.tracer.Dropped() != 0 {
		t.Fatalf("traced unit: %d failed checks, %d dropped events", tl.failed, p.tracer.Dropped())
	}
	for _, name := range []string{"model.grad_calls", "transport.send_calls", "collective.ops", "engine.compute_s", "controller.groups"} {
		if tl.layer[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, tl.layer[name])
		}
	}

	small := newProbes()
	small.tracer = trace.New(trace.NewWallClock(), 1)
	small.tracer.Instant(trace.KReady, 0, 0, 0, 0)
	small.tracer.Instant(trace.KReady, 0, 1, 0, 0)
	small.ins = p.ins
	tl = &tally{layer: map[string]float64{}}
	small.recordInstruments(tl)
	if tl.failed != 1 {
		t.Fatalf("overflowing ring counted %d failures, want 1", tl.failed)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median %v", q)
	}
	if q := quantile(xs, 0.99); q != 4.96 {
		t.Fatalf("p99 %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty %v", q)
	}
}
