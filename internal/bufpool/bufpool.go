// Package bufpool provides size-classed buffer pools for the data plane's
// two hot buffer types: []float64 payload vectors and []byte wire frames.
// Buffers are recycled through one mutex-guarded free list per power-of-two
// size class, so a steady-state communication loop — the ring collectives
// stepping over the in-process or TCP transport — performs zero heap
// allocations once the pools are warm: a Get misses only when more buffers of
// its class are in use at once than ever before. (A sync.Pool gives no such
// bound: a Get cannot see another P's private slot, and a P's queue grows
// by allocation whenever its backlog hits a new high, so refills trickle on
// long after warm-up.) Idle buffers are never released: the pools hold at
// most the peak number in use.
//
// Ownership rules (see DESIGN.md "Data plane"):
//
//   - A buffer obtained from Get* is owned by the caller until it either
//     passes ownership on (e.g. the transport hands a pooled payload to a
//     plain Recv caller, after which the buffer simply becomes garbage) or
//     returns it with Put*.
//   - Put* must only be called with buffers no other goroutine can still
//     reference. Double-Put is a caller bug and corrupts the pool.
//   - Put* accepts buffers of any origin (pool or not); capacities that are
//     not an exact size class are quietly dropped rather than poisoning one.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// maxClass bounds the pooled capacity: 1 << maxClass elements. Larger
// requests are served by plain make and dropped on Put (a 2^26-float buffer
// is already half a gigabyte).
const maxClass = 26

// classFor returns the smallest power-of-two class index whose capacity
// holds n elements, or -1 when n is out of pooled range.
func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	c := bits.Len(uint(n - 1)) // ceil(log2 n)
	if c > maxClass {
		return -1
	}
	return c
}

// capClass maps an exact power-of-two capacity to its class, or -1.
func capClass(c int) int {
	if c <= 0 || c&(c-1) != 0 {
		return -1
	}
	k := bits.Len(uint(c)) - 1
	if k > maxClass {
		return -1
	}
	return k
}

// Miss counters: the tests and the allocs-per-step CI gate use these to pin
// down steady-state reuse (a warm loop must stop missing).
var (
	f64Misses  atomic.Int64
	byteMisses atomic.Int64
)

// Float64Misses reports how many GetFloat64 calls fell through to a fresh
// allocation (pool miss or out-of-range size) since process start.
func Float64Misses() int64 { return f64Misses.Load() }

// BytesMisses reports how many GetBytes calls fell through to a fresh
// allocation since process start.
func BytesMisses() int64 { return byteMisses.Load() }

// freeList is one size class's idle buffers, the most recently returned last.
type freeList[T any] struct {
	mu   sync.Mutex
	bufs [][]T
}

// get pops an idle buffer, or returns nil when there is none.
func (l *freeList[T]) get() []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.bufs)
	if n == 0 {
		return nil
	}
	b := l.bufs[n-1]
	l.bufs[n-1] = nil
	l.bufs = l.bufs[:n-1]
	return b
}

func (l *freeList[T]) put(b []T) {
	l.mu.Lock()
	l.bufs = append(l.bufs, b)
	l.mu.Unlock()
}

var f64Pools [maxClass + 1]freeList[float64]

// GetFloat64 returns a []float64 of length n (capacity a power of two >= n)
// from the pool, allocating only on a miss. Contents are unspecified; callers
// that need zeros must clear it.
func GetFloat64(n int) []float64 {
	c := classFor(n)
	if c < 0 {
		f64Misses.Add(1)
		return make([]float64, n)
	}
	if buf := f64Pools[c].get(); buf != nil {
		return buf[:n]
	}
	f64Misses.Add(1)
	return make([]float64, n, 1<<c)
}

// PutFloat64 recycles buf for a future GetFloat64. Buffers whose capacity is
// not an exact class size are dropped; nil is a no-op.
func PutFloat64(buf []float64) {
	if c := capClass(cap(buf)); c >= 0 {
		f64Pools[c].put(buf[:cap(buf)])
	}
}

var bytePools [maxClass + 1]freeList[byte]

// GetBytes returns a []byte of length n (capacity a power of two >= n) from
// the pool, allocating only on a miss. Contents are unspecified.
func GetBytes(n int) []byte {
	c := classFor(n)
	if c < 0 {
		byteMisses.Add(1)
		return make([]byte, n)
	}
	if buf := bytePools[c].get(); buf != nil {
		return buf[:n]
	}
	byteMisses.Add(1)
	return make([]byte, n, 1<<c)
}

// PutBytes recycles buf; non-class capacities are dropped, nil is a no-op.
func PutBytes(buf []byte) {
	if c := capClass(cap(buf)); c >= 0 {
		bytePools[c].put(buf[:cap(buf)])
	}
}
