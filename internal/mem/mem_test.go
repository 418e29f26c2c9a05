package mem

import (
	"testing"

	"jetstream/internal/stats"
)

func TestDRAMRowLocality(t *testing.T) {
	st := &stats.Counters{}
	d := NewDRAM(DefaultDRAMConfig(), st)
	// Sequential lines map across channels; within one channel consecutive
	// lines share a row, so a streaming pattern must be mostly row hits.
	var addr uint64
	for i := 0; i < 1024; i++ {
		d.Access(0, addr)
		addr += 64
	}
	if st.DRAMAccesses != 1024 {
		t.Fatalf("accesses = %d", st.DRAMAccesses)
	}
	hitRate := float64(st.RowHits) / float64(st.DRAMAccesses)
	if hitRate < 0.9 {
		t.Errorf("sequential row-hit rate = %.2f, want > 0.9", hitRate)
	}
	if st.BytesTransferred != 1024*64 {
		t.Errorf("bytes = %d", st.BytesTransferred)
	}
}

func TestDRAMRandomWorseThanSequential(t *testing.T) {
	cfg := DefaultDRAMConfig()
	seqStats, rndStats := &stats.Counters{}, &stats.Counters{}
	seq := NewDRAM(cfg, seqStats)
	var seqDone uint64
	for i := 0; i < 2000; i++ {
		seqDone = seq.Access(0, uint64(i)*64)
	}
	rnd := NewDRAM(cfg, rndStats)
	var rndDone uint64
	x := uint64(12345)
	for i := 0; i < 2000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		rndDone = rnd.Access(0, (x>>20)%(1<<28))
	}
	if rndDone <= seqDone {
		t.Errorf("random (%d cycles) should be slower than sequential (%d)", rndDone, seqDone)
	}
	if rndStats.RowHits >= seqStats.RowHits {
		t.Errorf("random row hits %d >= sequential %d", rndStats.RowHits, seqStats.RowHits)
	}
}

func TestDRAMChannelParallelism(t *testing.T) {
	cfg := DefaultDRAMConfig()
	// All traffic to one channel vs spread across channels.
	one := NewDRAM(cfg, nil)
	var oneDone uint64
	for i := 0; i < 400; i++ {
		// Same channel: stride = channels * linebytes.
		oneDone = one.Access(0, uint64(i)*64*uint64(cfg.Channels))
	}
	spread := NewDRAM(cfg, nil)
	var spreadDone uint64
	for i := 0; i < 400; i++ {
		spreadDone = spread.Access(0, uint64(i)*64)
	}
	if spreadDone*2 > oneDone {
		t.Errorf("channel-parallel traffic (%d) should be much faster than single channel (%d)", spreadDone, oneDone)
	}
}

func TestDRAMReset(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig(), nil)
	d.Access(0, 0)
	d.Reset()
	// After reset, the first access at cycle 0 must see a closed row.
	st := &stats.Counters{}
	d2 := NewDRAM(DefaultDRAMConfig(), st)
	d2.Access(0, 0)
	d2.Reset()
	d2.Access(0, 0)
	if st.RowHits != 0 {
		t.Error("reset should close row buffers")
	}
}

func TestCacheBasic(t *testing.T) {
	c := NewCache(1024, 2, 64)
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("warm access missed")
	}
	if !c.Access(32) {
		t.Error("same-line access missed")
	}
	if c.Access(64) {
		t.Error("next line should miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRU(t *testing.T) {
	// 2 ways, 1 set of interest: three conflicting lines evict LRU.
	c := NewCache(128, 2, 64) // 1 set, 2 ways
	c.Access(0)
	c.Access(64)
	c.Access(0)   // touch 0: 64 becomes LRU
	c.Access(128) // evicts 64
	if !c.Access(0) {
		t.Error("0 should still be resident")
	}
	if c.Access(64) {
		t.Error("64 should have been evicted")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(1024, 2, 64)
	c.Access(0)
	c.Reset()
	if c.Access(0) {
		t.Error("cache not cold after reset")
	}
	c.Reset()
	if c.Hits != 0 && c.Misses != 0 {
		t.Error("counters not cleared")
	}
}
