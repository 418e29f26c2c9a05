// Package sim provides a small discrete-event simulation kernel and the
// resource primitives the timing layer builds on. The paper evaluates
// JetStream on the Structural Simulation Toolkit; this package is the
// equivalent substrate here: a deterministic event calendar plus pipelined
// resource and bandwidth models used by the DRAM, NoC and engine timing
// models.
package sim

import "container/heap"

// Kernel is a discrete-event calendar. Events scheduled for the same cycle
// fire in insertion order, which keeps runs deterministic.
type Kernel struct {
	now uint64
	seq uint64
	cal calendar
}

type calEntry struct {
	at  uint64
	seq uint64
	fn  func()
}

type calendar []calEntry

func (c calendar) Len() int { return len(c) }
func (c calendar) Less(i, j int) bool {
	if c[i].at != c[j].at {
		return c[i].at < c[j].at
	}
	return c[i].seq < c[j].seq
}
func (c calendar) Swap(i, j int)       { c[i], c[j] = c[j], c[i] }
func (c *calendar) Push(x interface{}) { *c = append(*c, x.(calEntry)) }
func (c *calendar) Pop() (x interface{}) {
	x = (*c)[len(*c)-1]
	*c = (*c)[:len(*c)-1]
	return x
}

// Now returns the current simulated cycle.
func (k *Kernel) Now() uint64 { return k.now }

// Schedule queues fn to run at cycle `at` (clamped to now).
func (k *Kernel) Schedule(at uint64, fn func()) {
	if at < k.now {
		at = k.now
	}
	heap.Push(&k.cal, calEntry{at: at, seq: k.seq, fn: fn})
	k.seq++
}

// After queues fn to run delay cycles from now.
func (k *Kernel) After(delay uint64, fn func()) { k.Schedule(k.now+delay, fn) }

// Step fires the earliest pending event; it reports false when the calendar
// is empty.
func (k *Kernel) Step() bool {
	if k.cal.Len() == 0 {
		return false
	}
	e := heap.Pop(&k.cal).(calEntry)
	k.now = e.at
	e.fn()
	return true
}

// Run drains the calendar and returns the final cycle.
func (k *Kernel) Run() uint64 {
	for k.Step() {
	}
	return k.now
}

// Resource models a fully pipelined unit that can accept one operation per
// `Interval` cycles. Acquire returns when the operation starts; the caller
// adds its own latency for completion.
type Resource struct {
	Interval uint64 // cycles between successive accepts (>=1)
	nextFree uint64
	busy     uint64 // total cycles the resource was occupied
}

// Acquire reserves the resource at or after `at` and returns the start cycle.
func (r *Resource) Acquire(at uint64) uint64 {
	iv := r.Interval
	if iv == 0 {
		iv = 1
	}
	start := at
	if r.nextFree > start {
		start = r.nextFree
	}
	r.nextFree = start + iv
	r.busy += iv
	return start
}

// AcquireN reserves the resource for n back-to-back operations at or after
// `at`, returning the start cycle of the first. Generation streams walking a
// whole adjacency use this instead of n Acquire calls.
func (r *Resource) AcquireN(at uint64, n int) uint64 {
	if n <= 0 {
		return at
	}
	iv := r.Interval
	if iv == 0 {
		iv = 1
	}
	start := at
	if r.nextFree > start {
		start = r.nextFree
	}
	dur := iv * uint64(n)
	r.nextFree = start + dur
	r.busy += dur
	return start
}

// NextFree returns the cycle at which the resource becomes available.
func (r *Resource) NextFree() uint64 { return r.nextFree }

// Busy returns total occupied cycles — utilization accounting.
func (r *Resource) Busy() uint64 { return r.busy }

// Reset clears the schedule but keeps the interval.
func (r *Resource) Reset() { r.nextFree, r.busy = 0, 0 }

// Bandwidth models a byte-granular shared bus: transfers serialize at
// BytesPerCycle.
type Bandwidth struct {
	BytesPerCycle float64
	nextFree      uint64
	bytes         uint64
}

// Transfer reserves the bus for n bytes at or after `at`, returning the
// cycle the transfer completes.
func (b *Bandwidth) Transfer(at uint64, n int) uint64 {
	start := at
	if b.nextFree > start {
		start = b.nextFree
	}
	dur := uint64(float64(n)/b.BytesPerCycle + 0.999999)
	if dur == 0 {
		dur = 1
	}
	b.nextFree = start + dur
	b.bytes += uint64(n)
	return b.nextFree
}

// Bytes returns the total bytes moved.
func (b *Bandwidth) Bytes() uint64 { return b.bytes }

// NextFree returns when the bus frees up.
func (b *Bandwidth) NextFree() uint64 { return b.nextFree }

// Reset clears the schedule.
func (b *Bandwidth) Reset() { b.nextFree, b.bytes = 0, 0 }

// Max returns the larger of two cycle counts; the timing models combine
// stage bounds with it constantly.
func Max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
