package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"partialreduce/internal/data"
	"partialreduce/internal/metrics"
	"partialreduce/internal/model"
	"partialreduce/internal/tensor"
	"partialreduce/internal/trace"
	"partialreduce/internal/transport"
)

// probes observe the layers of one traced unit from outside the program,
// through hooks its API already offers: any model.Builder is accepted where
// a model is configured, live.Run takes any transport.Transport endpoints,
// and the runtimes accept a trace.Tracer and metrics.Instruments. Untraced
// units attach none of them.
type probes struct {
	model     modelStats
	transport transportStats
	tracer    *trace.Tracer
	ins       *metrics.Instruments
}

func newProbes() *probes { return &probes{} }

// recordModel adds the unit's model-layer metrics to t.
func (p *probes) recordModel(t *tally) {
	t.add("model.grad_calls", float64(len(p.model.grad)))
	t.add("model.grad_s", p.model.gradSeconds())
	t.add("model.grad_p50_us", quantile(p.model.grad, 0.5))
	t.add("model.predict_calls", float64(p.model.predictCalls.Load()))
	t.add("model.predict_s", float64(p.model.predictNs.Load())/1e9)
}

// recordTransport adds the unit's transport-layer metrics to t.
func (p *probes) recordTransport(t *tally) {
	t.add("transport.send_calls", float64(p.transport.sendCalls.Load()))
	t.add("transport.send_mb", float64(p.transport.sendBytes.Load())/1e6)
	t.add("transport.send_s", float64(p.transport.sendNs.Load())/1e9)
	t.add("transport.recv_calls", float64(p.transport.recvCalls.Load()))
	t.add("transport.recv_s", float64(p.transport.recvNs.Load())/1e9)
}

// recordInstruments adds the controller counters the unit's Instruments
// saw, and fails the unit if its trace ring overflowed.
func (p *probes) recordInstruments(t *tally) {
	snap := p.ins.Snapshot()
	t.add("controller.groups", float64(snap.GroupsFormed))
	t.add("controller.staleness_p50", float64(snap.Staleness.Quantile(0.50)))
	t.add("controller.staleness_p95", float64(snap.Staleness.Quantile(0.95)))
	dropped := p.tracer.Dropped()
	t.add("trace.dropped", float64(dropped))
	var err error
	if dropped > 0 {
		err = fmt.Errorf("trace ring dropped %d events; grow its capacity", dropped)
	}
	t.check(err)
}

// modelStats times the model layer's calls: every Gradient call, and the
// count and total time of Predict calls (one per evaluated example, too many
// to keep individually).
type modelStats struct {
	mu                      sync.Mutex
	grad                    []float64 // µs per Gradient call
	predictCalls, predictNs atomic.Int64
}

func (st *modelStats) gradSeconds() float64 {
	sum := 0.0
	for _, us := range st.grad {
		sum += us
	}
	return sum / 1e6
}

// probedBuilder wraps a model.Builder so every model it builds, and every
// clone of those, reports to st.
type probedBuilder struct {
	inner model.Builder
	st    *modelStats
}

func (b probedBuilder) Build(seed int64) model.Model {
	return &probedModel{Model: b.inner.Build(seed), st: b.st}
}

type probedModel struct {
	model.Model
	st *modelStats
}

func (m *probedModel) Gradient(dst tensor.Vector, b *data.Batch) float64 {
	t0 := time.Now()
	loss := m.Model.Gradient(dst, b)
	us := float64(time.Since(t0)) / 1e3
	m.st.mu.Lock()
	m.st.grad = append(m.st.grad, us)
	m.st.mu.Unlock()
	return loss
}

func (m *probedModel) Predict(x tensor.Vector) int {
	t0 := time.Now()
	y := m.Model.Predict(x)
	m.st.predictNs.Add(int64(time.Since(t0)))
	m.st.predictCalls.Add(1)
	return y
}

func (m *probedModel) Clone() model.Model {
	return &probedModel{Model: m.Model.Clone(), st: m.st}
}

// transportStats counts and times the transport layer's calls. recvNs is
// time blocked in a receive, which includes waiting for the sender.
type transportStats struct {
	sendCalls, sendBytes, sendNs atomic.Int64
	recvCalls, recvNs            atomic.Int64
}

// probedEndpoint wraps a transport.Mem endpoint. It forwards every optional
// interface Mem implements, so the runtime's failure handling, deadlines
// and retries take the same paths as on an unwrapped world.
type probedEndpoint struct {
	*transport.Mem
	st *transportStats
}

var (
	_ transport.Transport      = (*probedEndpoint)(nil)
	_ transport.DeadlineRecver = (*probedEndpoint)(nil)
	_ transport.OpPurger       = (*probedEndpoint)(nil)
	_ transport.PeerFailer     = (*probedEndpoint)(nil)
	_ transport.OpAborter      = (*probedEndpoint)(nil)
	_ transport.SelfFailer     = (*probedEndpoint)(nil)
)

func (e *probedEndpoint) Send(to int, tag uint64, payload []float64) error {
	t0 := time.Now()
	err := e.Mem.Send(to, tag, payload)
	e.st.sendNs.Add(int64(time.Since(t0)))
	e.st.sendCalls.Add(1)
	e.st.sendBytes.Add(8 * int64(len(payload)))
	return err
}

func (e *probedEndpoint) Recv(from int, tag uint64) ([]float64, error) {
	t0 := time.Now()
	p, err := e.Mem.Recv(from, tag)
	e.recvDone(t0)
	return p, err
}

func (e *probedEndpoint) RecvInto(from int, tag uint64, dst []float64) (int, error) {
	t0 := time.Now()
	n, err := e.Mem.RecvInto(from, tag, dst)
	e.recvDone(t0)
	return n, err
}

func (e *probedEndpoint) RecvIntoTimeout(from int, tag uint64, dst []float64, timeout time.Duration) (int, error) {
	t0 := time.Now()
	n, err := e.Mem.RecvIntoTimeout(from, tag, dst, timeout)
	e.recvDone(t0)
	return n, err
}

func (e *probedEndpoint) recvDone(t0 time.Time) {
	e.st.recvNs.Add(int64(time.Since(t0)))
	e.st.recvCalls.Add(1)
}

// memWorld returns an n-rank in-process world, wrapped when st is non-nil.
func memWorld(n int, st *transportStats) []transport.Transport {
	world := make([]transport.Transport, n)
	for i, ep := range transport.NewMem(n) {
		if st != nil {
			world[i] = &probedEndpoint{Mem: ep, st: st}
		} else {
			world[i] = ep
		}
	}
	return world
}
