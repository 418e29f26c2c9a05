package noc

import "testing"

func TestSpreadCycles(t *testing.T) {
	x := New(16, 16)
	if c := x.SpreadCycles(0); c != 0 {
		t.Errorf("zero flits = %d", c)
	}
	// 160 flits over 16 ports = 10/port, +25% margin = 12, +head 2 = 14.
	if c := x.SpreadCycles(160); c != 14 {
		t.Errorf("160 flits = %d cycles, want 14", c)
	}
	// Throughput scales with port count.
	narrow := New(4, 4)
	if narrow.SpreadCycles(160) <= x.SpreadCycles(160) {
		t.Error("narrower crossbar should take longer")
	}
}
