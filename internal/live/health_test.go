package live

import (
	"bytes"
	"os"
	"testing"
	"time"

	"partialreduce/internal/health"
	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

// TestLiveWatchdogCapturesStragglerBundle: a straggling rank pushes its
// recent-blame EWMA over the SLO, the watchdog (evaluated on the
// controller service's own goroutine) fires blame-spike exactly once,
// and the flight recorder leaves one valid postmortem bundle with the
// trace ring inside.
func TestLiveWatchdogCapturesStragglerBundle(t *testing.T) {
	cfg := liveConfig(t, 9)
	cfg.Iters = 150
	cfg.ComputeDelay = func(worker, iter int) time.Duration {
		if worker == 1 {
			return 5 * time.Millisecond
		}
		return 0
	}
	cfg.Tracer = trace.New(trace.NewWallClock(), 2048)
	cfg.Instruments = metrics.NewInstruments(cfg.N)
	wd := health.New(health.Config{SLO: health.SLO{BlameRecent: 0.0005}})
	dir := t.TempDir()
	rec := health.NewRecorder(dir, cfg.Tracer, cfg.Instruments, []byte(`{"test":"live-watchdog"}`))
	cfg.Watchdog = wd
	cfg.WatchdogEvery = 10 * time.Millisecond
	cfg.Recorder = rec

	rep, err := Run(cfg, memWorld(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups == 0 {
		t.Fatal("no groups executed")
	}

	written := rec.Written()
	if len(written) != 1 {
		t.Fatalf("recorder wrote %d bundles %v, want exactly 1 (hysteresis must hold the firing rule)", len(written), written)
	}
	data, err := os.ReadFile(written[0])
	if err != nil {
		t.Fatal(err)
	}
	man, err := health.Validate(data)
	if err != nil {
		t.Fatalf("bundle failed validation: %v", err)
	}
	if len(man.Rules) != 1 || man.Rules[0] != "blame-spike" {
		t.Fatalf("bundle rules %v, want [blame-spike]", man.Rules)
	}
	_, parts, err := health.ReadBundle(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(parts[health.PartTrace]) == 0 {
		t.Fatal("bundle trace ring is empty")
	}
	if len(parts[health.PartController]) == 0 {
		t.Fatal("bundle controller snapshot is empty")
	}
	st := wd.State()
	if !st.Ready() {
		t.Fatal("watchdog never evaluated")
	}
	if st.Healthy() {
		t.Fatal("blame-spike should still be firing at run end (the straggler never recovered)")
	}
}

// TestLiveWatchdogQuietRunStaysClean: with generous SLOs nothing fires
// and no bundle is written, but the watchdog still evaluates (readiness).
func TestLiveWatchdogQuietRunStaysClean(t *testing.T) {
	cfg := liveConfig(t, 10)
	cfg.Iters = 60
	cfg.Tracer = trace.New(trace.NewWallClock(), 2048)
	cfg.Instruments = metrics.NewInstruments(cfg.N)
	wd := health.New(health.Config{SLO: health.SLO{
		BlameRecent: 1e6, QueueDepth: 1e6, RetryStorm: 1e6,
	}})
	rec := health.NewRecorder(t.TempDir(), cfg.Tracer, cfg.Instruments, nil)
	cfg.Watchdog = wd
	// The cadence must be well below the run's length (a few ms for 60
	// iterations of this model) or the watchdog never evaluates.
	cfg.WatchdogEvery = 500 * time.Microsecond
	cfg.Recorder = rec

	if _, err := Run(cfg, memWorld(cfg.N)); err != nil {
		t.Fatal(err)
	}
	if w := rec.Written(); len(w) != 0 {
		t.Fatalf("quiet run wrote bundles: %v", w)
	}
	st := wd.State()
	if !st.Ready() || !st.Healthy() {
		t.Fatalf("quiet run state: ready=%t healthy=%t, want true/true", st.Ready(), st.Healthy())
	}
}
