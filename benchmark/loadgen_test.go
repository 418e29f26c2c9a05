package main

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// fakeClock is a clock whose time only moves when told to.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

// A stall on one request must be charged to the requests that were due while
// it lasted: they start late (lag) and their latency counts from their due
// instant, not from when they were finally sent.
func TestScheduleChargesStallToQueuedRequests(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t
	service := func(i int) time.Duration {
		if i == 2 {
			return 45 * ms // the stall
		}
		return 1 * ms
	}
	ps := runSchedule(clk, start, 10*ms, 8, func(i int) error {
		clk.t = clk.t.Add(service(i))
		if i == 5 {
			return errors.New("refused")
		}
		return nil
	})
	// due:      0  10  20  30  40  50  60  70
	// starts:   0  10  20  65  66  67  68  70
	wantLag := []time.Duration{0, 0, 0, 35 * ms, 26 * ms, 17 * ms, 8 * ms, 0}
	wantLat := []time.Duration{1 * ms, 1 * ms, 45 * ms, 36 * ms, 27 * ms, 18 * ms, 9 * ms, 1 * ms}
	if !reflect.DeepEqual(ps.lag, wantLag) {
		t.Errorf("lag = %v, want %v", ps.lag, wantLag)
	}
	if !reflect.DeepEqual(ps.lat, wantLat) {
		t.Errorf("latency = %v, want %v", ps.lat, wantLat)
	}
	if ps.attempted != 8 || ps.failed != 1 || ps.firstErr == nil {
		t.Errorf("attempted %d failed %d err %v, want 8, 1, refused", ps.attempted, ps.failed, ps.firstErr)
	}
	if ps.wall != 71*ms {
		t.Errorf("wall = %v, want 71ms", ps.wall)
	}
}

// Tenants are dealt to connections in contiguous blocks, every tenant to
// exactly one connection.
func TestLanesOwnTenantsExclusively(t *testing.T) {
	ins := make([]*tenantInput, 8)
	for i := range ins {
		ins[i] = &tenantInput{spec: tenantSpec{name: string(rune('a' + i))}}
	}
	lanes := newLanes("http://unused", 2, ins)
	var got [][]string
	for _, l := range lanes {
		var names []string
		for _, s := range l.streams {
			names = append(names, s.in.spec.name)
		}
		got = append(got, names)
	}
	want := [][]string{{"a", "b", "c", "d"}, {"e", "f", "g", "h"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lanes = %v, want %v", got, want)
	}
}

func TestRefusesMoreConnectionsThanCPUs(t *testing.T) {
	w := workload{name: "greedy", conns: maxConns() + 1}
	if err := checkConns(w); err == nil {
		t.Fatal("a workload with more connections than CPUs was accepted")
	}
	w.conns = maxConns()
	if err := checkConns(w); err != nil {
		t.Fatal(err)
	}
}
