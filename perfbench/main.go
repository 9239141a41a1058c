// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one named workload, or both in turn in one process, for a
// fixed time each. Per workload it prints a table and then a JSON object
// with the correctness verdict and either the end-to-end metrics (-trace 0)
// or the per-layer metrics of a traced run (-trace 1). See README.md for
// the workloads, the metrics and which layer is expected to move which
// end-to-end number.
//
//	perfbench --workload live-wide --seed 1 --seconds 55 --trace 0
//	perfbench --workload all --seconds 55
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// A workload is one named input set. measure repeats units of it until
// the measuring time is spent: each unit is set up (timed as setup_s), run
// (timed as run_s) and then checked.
type workload interface {
	// setUp builds one unit's inputs from the workload seed, attaching p's
	// hooks when p is non-nil (a traced unit).
	setUp(p *probes) error
	// run executes the unit set up last; it is the timed phase. It returns
	// the seconds of set-up work it had to interleave with the timed work
	// (sim-table1 builds each cell just before running it, so that one
	// cell's dataset is alive at a time); measure moves them from run_s
	// to setup_s.
	run() (float64, error)
	// pieces splits the timed phase of the unit run last into pieces, in
	// seconds, that do the same work in every unit of a run, so piece j of
	// one unit can be compared with piece j of another. nil means the unit
	// is one piece.
	pieces() []float64
	// collect checks the unit's outputs and records its samples into t.
	// runS is the unit's run time.
	collect(t *tally, p *probes, runS float64)
}

// workloads lists the workloads in the order --workload all runs them.
var workloads = []struct {
	name string
	new  func(seed int64) workload
}{
	{"live-wide", newLiveWide},
	{"sim-table1", newSimTable1},
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, reported for every
// workload.
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"heap_p90_mb", "MB"},
	{"updates_per_s", "1/s"},
}

// perLayer lists the metrics of a traced run, each the mean over the
// traced units (0 where the workload bypasses the layer), except op.*,
// which are quantiles over the bare units' unit operations: a worker step
// (live-wide) or a grid cell (sim-table1).
var perLayer = []metricDef{
	{"op.latency_p50_us", "us"},
	{"op.latency_p99_us", "us"},
	{"model.grad_calls", "count"},
	{"model.grad_s", "s"},
	{"model.grad_p50_us", "us"},
	{"model.predict_calls", "count"},
	{"model.predict_s", "s"},
	{"model.final_accuracy", "fraction"},
	{"transport.send_calls", "count"},
	{"transport.send_mb", "MB"},
	{"transport.send_s", "s"},
	{"transport.recv_calls", "count"},
	{"transport.recv_s", "s"},
	{"collective.ops", "count"},
	{"collective.mb_sent", "MB"},
	{"collective.segments", "count"},
	{"collective.reduce_scatter_s", "s"},
	{"collective.all_gather_s", "s"},
	{"collective.retries", "count"},
	{"collective.timeouts", "count"},
	{"collective.aborts", "count"},
	{"engine.compute_s", "s"},
	{"engine.comm_s", "s"},
	{"engine.retry_s", "s"},
	{"engine.group_wait_s", "s"},
	{"engine.signal_wait_s", "s"},
	{"engine.other_s", "s"},
	{"engine.critical_path_s", "s"},
	{"controller.groups", "count"},
	{"controller.staleness_p50", "iterations"},
	{"controller.staleness_p95", "iterations"},
	{"controller.signals_per_s", "1/s"},
	{"sim.cells", "count"},
	{"sim.updates", "count"},
	{"sim.other_s", "s"},
	{"data.gen_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.dropped", "count"},
	{"trace.overhead", "ratio"},
}

// tally accumulates one run's checks and samples.
type tally struct {
	attempted, failed int
	// updates is the current unit's model-update count (collect sets it).
	updates float64
	// lat holds unit-operation latencies in µs from bare units.
	lat []float64
	// dataGen is the dataset-generation time of the current unit's set-up.
	dataGen float64
	// layer sums per-layer values over traced units.
	layer map[string]float64
}

// check counts one checked output, failed when err is non-nil.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
}

// checkMany counts n checked outputs of which bad failed, first being the
// first failure.
func (t *tally) checkMany(n, bad int, first error) {
	t.attempted += n
	t.failed += bad
	if first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checks failed, first: %v\n", bad, n, first)
	}
}

func (t *tally) add(name string, v float64) { t.layer[name] += v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// minUnits is the fewest units a run measures, however short --seconds is,
// so that every reported median and fastest time has several samples.
const minUnits = 3

// measure runs w for the given time. In a traced run, odd units carry
// probes and even units run bare, so trace.overhead compares like with like.
//
// run_s sums, over the pieces of a unit, each piece's fastest time over the
// run's bare units. On a shared host the same instructions run at full
// speed or at about half of it, switching within milliseconds to seconds:
// a fixed 1 ms floating-point loop on a 2-vCPU cloud VM took 0.84 ms in
// nearly every second of a two-minute trace, but 1.4-1.6 ms at the median
// of most seconds, and vCPU steal comes in bursts on top. The median time
// of a run is set by how much of it the host spent slow; the fastest
// repeat of each short piece is much less so.
func measure(w workload, seconds float64, traced bool) result {
	t := &tally{layer: map[string]float64{}}
	var setups, runs, updates, heaps, tracedRuns, dataGen []float64
	var fastest []float64 // fastest[j]: piece j's least time over the bare units
	var alloc, gcs, pause float64
	hs := newHeapSampler()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minUnits || (traced && i < 2*minUnits) || time.Now().Before(deadline); i++ {
		var p *probes
		if traced && i%2 == 1 {
			p = newProbes()
		}
		t.dataGen = 0
		// The heap left from earlier units and the benchmark's own samples is
		// the baseline that heap_p90_mb excludes.
		runtime.GC()
		base := readHeap([]metrics.Sample{{Name: heapMetric}})
		t0 := time.Now()
		if err := w.setUp(p); err != nil {
			t.check(fmt.Errorf("set-up: %w", err))
			continue
		}
		setupS := time.Since(t0).Seconds()
		runtime.GC()
		gs := readGoStats()
		hs.start()
		t1 := time.Now()
		inner, err := w.run()
		runS := time.Since(t1).Seconds() - inner
		setupS += inner
		heap := hs.finish()
		ge := readGoStats()
		if err != nil {
			t.check(fmt.Errorf("run: %w", err))
			continue
		}
		t.updates = 0
		w.collect(t, p, runS)
		if !traced {
			// Only a traced run reports the op.* latencies; keeping them
			// here would grow the heap the program's GC paces against.
			t.lat = t.lat[:0]
		}
		fmt.Fprintf(os.Stderr, "unit %d traced=%t setup_s=%.6f run_s=%.6f heap_p90_mb=%.3f updates=%g\n",
			i, p != nil, setupS, runS, heap, t.updates)
		dataGen = append(dataGen, t.dataGen)
		if p != nil {
			tracedRuns = append(tracedRuns, runS)
			continue
		}
		ps := w.pieces()
		if ps == nil {
			ps = []float64{runS}
		}
		if fastest == nil {
			fastest = slices.Clone(ps)
		}
		if len(ps) != len(fastest) {
			t.check(fmt.Errorf("unit %d ran %d timed pieces, the run's first unit %d", i, len(ps), len(fastest)))
			continue
		}
		for j, s := range ps {
			fastest[j] = min(fastest[j], s)
		}
		setups = append(setups, setupS)
		runs = append(runs, runS)
		updates = append(updates, t.updates)
		heaps = append(heaps, heap-float64(base)/1e6)
		alloc += float64(ge.allocBytes - gs.allocBytes)
		gcs += float64(ge.gcCycles - gs.gcCycles)
		pause += float64(ge.pauseNs - gs.pauseNs)
	}

	res := result{
		Correct:   t.attempted > 0 && t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricValue{},
	}
	var vals map[string]float64
	if !traced {
		var runS float64
		for _, s := range fastest {
			runS += s
		}
		vals = map[string]float64{
			"run_s":       runS,
			"setup_s":     median(setups),
			"heap_p90_mb": median(heaps),
		}
		if runS > 0 {
			vals["updates_per_s"] = median(updates) / runS
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		return res
	}
	vals = map[string]float64{}
	if n := float64(len(tracedRuns)); n > 0 {
		for k, v := range t.layer {
			vals[k] = v / n
		}
	}
	if n := float64(len(runs)); n > 0 {
		vals["go.alloc_mb"] = alloc / n / 1e6
		vals["go.gc_cycles"] = gcs / n
		vals["go.gc_pause_ms"] = pause / n / 1e6
	}
	if len(dataGen) > 0 {
		vals["data.gen_s"] = median(dataGen)
	}
	vals["op.latency_p50_us"] = quantile(t.lat, 0.50)
	vals["op.latency_p99_us"] = quantile(t.lat, 0.99)
	if len(runs) > 0 && len(tracedRuns) > 0 {
		vals["trace.overhead"] = median(tracedRuns)/median(runs) - 1
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return res
}

func main() {
	name := flag.String("workload", "", "workload: live-wide, sim-table1, or all (each in turn, in one process)")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measuring time per workload, in seconds")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	var run []int
	for i, w := range workloads {
		if *name == w.name || *name == "all" {
			run = append(run, i)
		}
	}
	if len(run) == 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceFlag)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	// Each workload's result ends with its JSON line, so with one workload
	// that line is the last of the output.
	for _, i := range run {
		w := workloads[i]
		res := measure(w.new(*seed), *seconds, *traceFlag == 1)
		for _, m := range append(endToEnd, perLayer...) {
			if v, ok := res.Metrics[m.name]; ok {
				fmt.Printf("%-12s %-36s %16.6f %s\n", w.name, m.name, v.Value, v.Unit)
			}
		}
		fmt.Printf("%-12s %-36s %d of %d failed\n", w.name, "checks", res.Failed, res.Attempted)
		out, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
}
