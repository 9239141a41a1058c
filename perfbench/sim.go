package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"partialreduce/internal/cluster"
	"partialreduce/internal/data"
	"partialreduce/internal/experiments"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/tensor"
)

// simCell is one (cell, strategy) run of the Table 1 grid.
type simCell struct {
	cell     experiments.Cell
	strategy string
}

// table1Cells lists the paper's Table 1 grid in experiments.Table1's order:
// ResNet-34 and VGG-19 at HL 1 and 3, DenseNet-121 at HL 1 and 2, every
// strategy of experiments.Table1Strategies, N=8, full budgets.
func table1Cells(seed int64) []simCell {
	blocks := []struct {
		profile model.Profile
		hls     []int
	}{
		{model.ResNet34, []int{1, 3}},
		{model.VGG19, []int{1, 3}},
		{model.DenseNet121, []int{1, 2}},
	}
	var out []simCell
	for _, b := range blocks {
		w := experiments.CIFAR10Workload(b.profile)
		for _, hl := range b.hls {
			for _, s := range experiments.Table1Strategies {
				out = append(out, simCell{
					cell:     experiments.Cell{Workload: w, N: 8, Env: experiments.EnvHL, HL: hl, Seed: seed},
					strategy: s,
				})
			}
		}
	}
	return out
}

// runSimCell builds and runs one cell, wrapping its model builder with
// probe and with tk when non-nil. It returns the result and the build time.
func runSimCell(c simCell, probe *modelStats, tk *ticker) (*metrics.Result, float64, error) {
	t0 := time.Now()
	s, err := experiments.StrategyFor(c.strategy)
	if err != nil {
		return nil, 0, err
	}
	cfg, err := c.cell.Build()
	if err != nil {
		return nil, 0, err
	}
	if probe != nil {
		cfg.Spec = probedBuilder{inner: cfg.Spec, st: probe}
	}
	if tk != nil {
		cfg.Spec = tickBuilder{inner: cfg.Spec, tk: tk}
	}
	cl, err := cluster.New(cfg, c.strategy)
	if err != nil {
		return nil, 0, err
	}
	buildS := time.Since(t0).Seconds()
	tk.stamp()
	res, err := s.Run(cl)
	tk.stamp()
	return res, buildS, err
}

// ticker stamps the time of every Gradient call made by the models its
// tickBuilder builds, and of the start and end of a cell's run: a Table 1
// cell is deterministic, so the k-th interval between stamps does the same
// work in every unit. The simulator calls Gradient from one goroutine, so
// stamping needs no lock.
type ticker struct {
	clk    clock
	stamps []int64
}

// stamp records the time; a nil ticker records nothing.
func (tk *ticker) stamp() {
	if tk != nil {
		tk.stamps = append(tk.stamps, tk.clk.ns())
	}
}

type tickBuilder struct {
	inner model.Builder
	tk    *ticker
}

func (b tickBuilder) Build(seed int64) model.Model {
	return &tickModel{Model: b.inner.Build(seed), tk: b.tk}
}

type tickModel struct {
	model.Model
	tk *ticker
}

func (m *tickModel) Gradient(dst tensor.Vector, b *data.Batch) float64 {
	m.tk.stamp()
	return m.Model.Gradient(dst, b)
}

func (m *tickModel) Clone() model.Model {
	return &tickModel{Model: m.Model.Clone(), tk: m.tk}
}

// resultDigest hashes every field of a result, floats at full precision.
func resultDigest(r *metrics.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *r)
	return h.Sum64()
}

// simGridSeed pins the grid to preduce-bench's default seed. How much work
// a Table 1 sweep does depends on how soon each cell reaches its accuracy
// threshold, which swings the sweep's wall time by about ±20% from one seed
// to the next; a benchmark that re-drew the grid per seed would measure that
// luck instead of the simulator's speed. The workload seed instead permutes
// the order the cells run in, which changes no cell's result.
const simGridSeed = 1

// simHeterogeneous keeps the heterogeneous half of the grid, the cells at
// HL > 1 (33 of 66, every strategy on every model). A whole grid takes 3 to
// 4 s, so a run would repeat each piece only 7 to 9 times, too few for its
// fastest repeat to miss the host's slow periods; the half grid runs twice
// as many repeats and its run_s spread half as wide.
func simHeterogeneous(cells []simCell) []simCell {
	var out []simCell
	for _, c := range cells {
		if c.cell.HL > 1 {
			out = append(out, c)
		}
	}
	return out
}

func newSimTable1(seed int64) workload {
	grid := simHeterogeneous(table1Cells(simGridSeed))
	w := &simWorkload{}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(grid)) {
		w.cells = append(w.cells, grid[i])
	}
	// Cell.Build regenerates the dataset for every cell; timing the
	// workload's Dataset hook gives data.gen_s.
	for i := range w.cells {
		gen := w.cells[i].cell.Workload.Dataset
		w.cells[i].cell.Workload.Dataset = func(seed int64) (*data.Dataset, error) {
			t0 := time.Now()
			ds, err := gen(seed)
			w.genS += time.Since(t0).Seconds()
			return ds, err
		}
	}
	return w
}

type simWorkload struct {
	cells []simCell
	probe *modelStats
	tick  *ticker // bare units only

	results []*metrics.Result
	cellS   []float64 // run time per cell, excluding its build
	pieceS  []float64 // every cell's intervals between ticker stamps
	genS    float64

	first []uint64 // per-cell digest of this run's first unit
}

func (w *simWorkload) setUp(p *probes) error {
	w.probe, w.tick = nil, nil
	if p != nil {
		w.probe = &p.model
	} else {
		w.tick = &ticker{clk: newClock()}
	}
	w.results = make([]*metrics.Result, len(w.cells))
	w.cellS = make([]float64, len(w.cells))
	w.genS = 0
	return nil
}

// run executes the grid serially; each cell is built just before it runs.
func (w *simWorkload) run() (float64, error) {
	var build float64
	w.pieceS = w.pieceS[:0]
	for i, c := range w.cells {
		t0 := time.Now()
		res, b, err := runSimCell(c, w.probe, w.tick)
		if err != nil {
			return build, fmt.Errorf("sim: %s on %s HL=%d: %w", c.strategy, c.cell.Workload.Name, c.cell.HL, err)
		}
		build += b
		w.cellS[i] = time.Since(t0).Seconds() - b
		w.results[i] = res
		if tk := w.tick; tk != nil {
			for k := 1; k < len(tk.stamps); k++ {
				w.pieceS = append(w.pieceS, float64(tk.stamps[k]-tk.stamps[k-1])/1e9)
			}
			tk.stamps = tk.stamps[:0]
		}
	}
	return build, nil
}

// pieces: the intervals between Gradient calls of every cell, about 16k
// per unit of some 100 µs each.
func (w *simWorkload) pieces() []float64 { return w.pieceS }

// checkSimCell is the simulator correctness check: the cell made progress,
// its accuracy is a fraction, and its result is bit-identical to the first
// repeat of the same seed (first is 0 on that first repeat).
func checkSimCell(r *metrics.Result, digest, first uint64) error {
	switch {
	case r.Updates <= 0:
		return fmt.Errorf("sim: %s on %s made no update", r.Strategy, r.Workload)
	case !(r.FinalAccuracy >= 0 && r.FinalAccuracy <= 1):
		return fmt.Errorf("sim: %s on %s accuracy %v", r.Strategy, r.Workload, r.FinalAccuracy)
	case first != 0 && digest != first:
		return fmt.Errorf("sim: %s on %s result differs between repeats of one seed", r.Strategy, r.Workload)
	}
	return nil
}

func (w *simWorkload) collect(t *tally, p *probes, runS float64) {
	t.dataGen = w.genS
	if w.first == nil {
		w.first = make([]uint64, len(w.cells))
	}
	updates, acc := 0, 0.0
	for i, r := range w.results {
		d := resultDigest(r)
		t.check(checkSimCell(r, d, w.first[i]))
		if w.first[i] == 0 {
			w.first[i] = d
		}
		updates += r.Updates
		acc += r.FinalAccuracy
	}
	t.updates = float64(updates)
	if p == nil {
		for _, s := range w.cellS {
			t.lat = append(t.lat, s*1e6)
		}
		return
	}
	p.recordModel(t)
	t.add("model.final_accuracy", acc/float64(len(w.results)))
	t.add("sim.cells", float64(len(w.results)))
	t.add("sim.updates", float64(updates))
	t.add("sim.other_s", runS-p.model.gradSeconds()-float64(p.model.predictNs.Load())/1e9)
}
