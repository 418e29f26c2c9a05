package main

import (
	"sync"
	"time"
)

// The reference computation: a fixed piece of work that shares nothing with
// the code under test — a dependent walk through a table far larger than the
// caches, an arithmetic recurrence, and a fresh megabyte allocated and
// touched. How long it takes says how fast this box is right now.
//
// The reference box is a 2-CPU virtual machine on a shared host, and what the
// host's other guests do moves the speed of CPU- and memory-bound code by
// 10-20 % from one minute to the next: the same daemon on the same inputs
// sustains 1250 batches/s in one run and 1450 in the next. No statistic taken
// inside a run can remove a drift slower than the run. So every life probes
// the box's speed around its phases and reports its timings at reference
// speed — a time multiplied, a rate divided, by how much faster than nominal
// the box ran the reference work just then. The raw figures and the factor
// are printed beside each metric.
const (
	calibTable = 1 << 22 // uint32 entries: 16 MB per thread
	calibSteps = 60000
	calibSpins = 1500000
	calibBytes = 1 << 20
	// calibThreads is the reference box's CPU count: the probe loads both,
	// as the daemon's engines do.
	calibThreads = 2
	// calibNominal is what one unit takes on the quiet reference box; frozen.
	calibNominal = 13 * time.Millisecond
)

// calibrator holds the walk tables, one per thread, and how long one probe
// runs.
type calibrator struct {
	tables [][]uint32
	d      time.Duration
	sink   uint64
}

func newCalibrator(probeTime time.Duration) *calibrator {
	c := &calibrator{d: probeTime}
	for k := 0; k < calibThreads; k++ {
		t := make([]uint32, calibTable)
		for i := range t {
			t[i] = uint32((uint64(i)*2654435761 + 12345) % calibTable)
		}
		c.tables = append(c.tables, t)
	}
	return c
}

// unit does the reference work once on table t and returns how long it took.
func calibUnit(t []uint32, at *uint32, sink *uint64) time.Duration {
	start := time.Now()
	a := *at
	for i := 0; i < calibSteps; i++ {
		a = t[a]
	}
	x := uint64(a) | 1
	for i := 0; i < calibSpins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	buf := make([]byte, calibBytes)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = byte(x)
	}
	*at = a
	*sink += x + uint64(buf[len(buf)-4096])
	return time.Since(start)
}

// speedOf turns probes (median unit times in ns) into the box's speed
// relative to nominal: above 1 the box is faster than the reference.
func speedOf(probes []float64) float64 {
	return float64(calibNominal) / median(probes)
}

// probe runs units on every thread side by side for the probe time and
// returns the median unit time in ns.
func (c *calibrator) probe() float64 {
	var mu sync.Mutex
	var all []float64
	var wg sync.WaitGroup
	for k := range c.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var at uint32
			var sink uint64
			var mine []float64
			for end := time.Now().Add(c.d); time.Now().Before(end); {
				mine = append(mine, float64(calibUnit(c.tables[k], &at, &sink)))
			}
			mu.Lock()
			all = append(all, mine...)
			c.sink += sink
			mu.Unlock()
		}()
	}
	wg.Wait()
	return median(all)
}
