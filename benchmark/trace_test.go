package main

import "testing"

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "service.http_rtt", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "service.decode", Start: 200, End: 210},
		{ID: 3, Parent: 1, Name: "service.ingest", Start: 300, End: 360},
		{ID: 4, Parent: 3, Name: "system.apply", Start: 400, End: 445},
		{ID: 5, Parent: 1, Name: "service.encode", Start: 500, End: 505},
	}
	self, over := selfTimes(spans)
	want := map[int]int64{1: 100 - 10 - 60 - 5, 2: 10, 3: 60 - 45, 4: 45, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	if len(over) != 0 {
		t.Errorf("over-covered = %v, want none", over)
	}
}

// Twins run one after another, so children measured on other twins can sum
// past their parent. The negative self time is kept and the span is flagged.
func TestOverCoveredParentIsReportedNotClamped(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "system.apply", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.apply", Start: 0, End: 70},
		{ID: 3, Parent: 1, Name: "wal.append", Start: 0, End: 50},
	}
	self, over := selfTimes(spans)
	if self[1] != -20 {
		t.Errorf("self of an over-covered parent = %d, want -20", self[1])
	}
	if !over[1] || over[2] || over[3] {
		t.Errorf("over = %v, want only span 1", over)
	}
}
