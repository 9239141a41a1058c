package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (sorts xs in place; 0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// clock reads monotonic nanoseconds since a fixed origin, cheaply enough to
// stamp every training step or controller call.
type clock struct{ origin time.Time }

func newClock() clock { return clock{origin: time.Now()} }

func (c clock) ns() int64 { return int64(time.Since(c.origin)) }

// heapSampler samples heap-object bytes while a unit runs, polling
// runtime/metrics (which does not stop the world) every heapSamplePeriod.
// One sampler serves every unit of a run, so its sample buffer belongs to
// the heap baseline rather than to any unit.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64 // bytes
}

const (
	heapSamplePeriod = time.Millisecond
	heapMetric       = "/memory/classes/heap/objects:bytes"
	// heapSampleCap holds a minute of samples, longer than any unit.
	heapSampleCap = 1 << 16
)

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func newHeapSampler() *heapSampler {
	return &heapSampler{samples: make([]float64, 0, heapSampleCap)}
}

// start begins sampling a unit's run.
func (h *heapSampler) start() {
	h.stop = make(chan struct{})
	h.samples = append(h.samples[:0], float64(readHeap([]metrics.Sample{{Name: heapMetric}})))
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if len(h.samples) < cap(h.samples) {
					h.samples = append(h.samples, float64(readHeap(s)))
				}
			}
		}
	}()
}

// finish stops sampling and returns the 90th percentile of the unit's
// samples in MB. The very peak is not used: it is one sample at the end
// of one collection cycle, and how far the heap overshoots there depends
// on how fast the collector's CPU ran at that moment.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	h.samples = append(h.samples, float64(readHeap([]metrics.Sample{{Name: heapMetric}})))
	return quantile(h.samples, 0.9) / 1e6
}

// goStats is a runtime.MemStats reading: bytes allocated, GC cycles and
// total GC pause, the inputs of the go.* per-layer metrics.
type goStats struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}
