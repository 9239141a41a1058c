package main

import (
	"fmt"
	"time"

	"partialreduce/internal/analyze"
	"partialreduce/internal/controller"
	"partialreduce/internal/data"
	"partialreduce/internal/live"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/optim"
	"partialreduce/internal/trace"
	"partialreduce/internal/transport"
)

// liveShape is one in-process training run on a transport.Mem world.
type liveShape struct {
	hidden   []int
	batch    int
	p        int
	iters    int     // local iterations per worker
	examples int     // dataset size before the 90/10 train/test split
	accFloor float64 // lowest acceptable final accuracy (10 classes: chance is 0.1)
}

const liveWorkers = 4

// liveWide: an MLP of 594,698 parameters, so each ring step carries MBs
// and the step is spent in tensor kernels.
func newLiveWide(seed int64) workload {
	return &liveWorkload{seed: seed, shape: liveShape{
		hidden: []int{2048, 256}, batch: 4, p: 3,
		iters: 20, examples: 2000, accFloor: 0.5,
	}}
}

type liveWorkload struct {
	seed  int64
	shape liveShape

	cfg   live.Config
	world []transport.Transport
	genS  float64
	rep   *live.Report
	// steps[w][k] is the clock reading at worker w's k-th ComputeDelay
	// callback; each worker goroutine writes only its own row, and the
	// rows are read after live.Run has joined every worker.
	clk   clock
	steps [][]int64
	nstep []int
}

func (w *liveWorkload) setUp(p *probes) error {
	s := w.shape
	t0 := time.Now()
	ds, err := data.GaussianMixture(data.MixtureConfig{
		Classes: 10, Dim: 32, Examples: s.examples,
		Separation: 3.5, Noise: 1.0, Seed: w.seed,
	})
	if err != nil {
		return err
	}
	train, test := ds.Split(0.9)
	w.genS = time.Since(t0).Seconds()

	var spec model.Builder = model.Spec{Inputs: 32, Hidden: s.hidden, Classes: 10}
	w.cfg = live.Config{
		N: liveWorkers, P: s.p, Spec: spec, Seed: w.seed,
		Train: train, Test: test, BatchSize: s.batch,
		Optimizer: optim.Config{LR: 0.03, Momentum: 0.9},
		Weighting: controller.Constant,
		Iters:     s.iters,
	}
	var ts *transportStats
	if p != nil {
		w.cfg.Spec = probedBuilder{inner: spec, st: &p.model}
		ts = &p.transport
		p.tracer = trace.New(trace.NewWallClock(), liveTraceEvents*liveWorkers*s.iters)
		p.ins = metrics.NewInstruments(liveWorkers)
		w.cfg.Tracer, w.cfg.Instruments = p.tracer, p.ins
	}
	w.world = memWorld(liveWorkers, ts)

	// A worker runs at most Iters steps (group fast-forward only skips).
	if w.steps == nil {
		w.steps = make([][]int64, liveWorkers)
		for i := range w.steps {
			w.steps[i] = make([]int64, s.iters)
		}
		w.nstep = make([]int, liveWorkers)
	}
	clear(w.nstep)
	w.clk = newClock()
	w.cfg.ComputeDelay = func(worker, _ int) time.Duration {
		if k := w.nstep[worker]; k < len(w.steps[worker]) {
			w.steps[worker][k] = w.clk.ns()
			w.nstep[worker] = k + 1
		}
		return 0
	}
	w.rep = nil
	return nil
}

// liveTraceEvents sizes the trace ring per worker iteration, about twice
// the 5.5 events an iteration of live-wide records (worker spans,
// collective phases, controller instants), so that a traced unit drops
// nothing.
const liveTraceEvents = 12

func (w *liveWorkload) run() (float64, error) {
	rep, err := live.Run(w.cfg, w.world)
	w.rep = rep
	return 0, err
}

// pieces: a live unit is one piece; which steps its workers compute is set
// by the seed, but how they interleave is not, so no part of one unit
// matches a part of another.
func (w *liveWorkload) pieces() []float64 { return nil }

// checkLive is the live correctness check: every worker completes its
// iterations without retries or aborts, groups formed, and the averaged
// model reaches the accuracy floor.
func checkLive(rep *live.Report, floor float64) error {
	for id, ok := range rep.Completed {
		if !ok {
			return fmt.Errorf("live: worker %d did not complete", id)
		}
	}
	switch {
	case rep.Groups == 0:
		return fmt.Errorf("live: no group formed")
	case rep.Aborts > 0 || rep.Failures > 0 || rep.Comms.Aborts > 0:
		return fmt.Errorf("live: %d group aborts, %d failures, %d collective aborts", rep.Aborts, rep.Failures, rep.Comms.Aborts)
	case rep.Comms.Retries > 0 || rep.Comms.Timeouts > 0:
		return fmt.Errorf("live: %d collective retries, %d timeouts", rep.Comms.Retries, rep.Comms.Timeouts)
	case !(rep.FinalAccuracy >= floor):
		return fmt.Errorf("live: final accuracy %.4f below floor %.2f", rep.FinalAccuracy, floor)
	}
	return nil
}

func (w *liveWorkload) collect(t *tally, p *probes, runS float64) {
	t.dataGen = w.genS
	t.check(checkLive(w.rep, w.shape.accFloor))
	t.updates = float64(w.rep.Groups)
	signals := 0
	for i, row := range w.steps {
		n := w.nstep[i]
		signals += n
		if p != nil {
			continue
		}
		for k := 1; k < n; k++ {
			t.lat = append(t.lat, float64(row[k]-row[k-1])/1e3)
		}
	}
	if p == nil {
		return
	}
	p.recordModel(t)
	p.recordTransport(t)
	p.recordInstruments(t)
	t.add("model.final_accuracy", w.rep.FinalAccuracy)
	t.add("controller.signals_per_s", float64(signals)/runS)
	c := w.rep.Comms
	t.add("collective.ops", float64(c.Ops))
	t.add("collective.mb_sent", float64(c.BytesSent)/1e6)
	t.add("collective.segments", float64(c.Segments))
	t.add("collective.reduce_scatter_s", c.ReduceScatter.Seconds())
	t.add("collective.all_gather_s", c.AllGather.Seconds())
	t.add("collective.retries", float64(c.Retries))
	t.add("collective.timeouts", float64(c.Timeouts))
	t.add("collective.aborts", float64(c.Aborts))

	rep, err := analyzeTrace(p.tracer)
	t.check(err)
	if err != nil {
		return
	}
	var ph [analyze.NumPhase]float64
	for _, r := range rep.Ranks {
		for i, v := range r.Phases {
			ph[i] += v
		}
	}
	t.add("engine.compute_s", ph[analyze.PhaseCompute])
	t.add("engine.comm_s", ph[analyze.PhaseComm])
	t.add("engine.retry_s", ph[analyze.PhaseRetry])
	t.add("engine.group_wait_s", ph[analyze.PhaseGroupWait])
	t.add("engine.signal_wait_s", ph[analyze.PhaseSignalWait])
	t.add("engine.other_s", ph[analyze.PhaseOther])
	t.add("engine.critical_path_s", rep.Crit.End-rep.Crit.Start)
}

// analyzeTrace runs the repository's trace analyzer over one in-process
// run's ring: a single trace, so no clock alignment is needed.
func analyzeTrace(tr *trace.Tracer) (*analyze.Report, error) {
	m, err := analyze.Merge([]analyze.RankTrace{{Rank: 0, Events: tr.Events()}})
	if err != nil {
		return nil, err
	}
	return analyze.Analyze(m)
}
