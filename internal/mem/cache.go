package mem

// Cache is a set-associative cache with LRU replacement, used for the
// per-engine edge caches (1 KB each in Table 4's configuration). The
// functional layer probes it with real edge-array addresses, so hit rates —
// and through them Fig 11's transfer utilization — emerge from the actual
// access pattern.
type Cache struct {
	sets      int
	ways      int
	lineBytes uint64
	tags      [][]uint64 // tag per way; 0 means empty (tags are addr|1)
	stamp     [][]uint64
	clock     uint64

	Hits, Misses uint64
}

// NewCache builds a cache of the given total size. size and ways must yield
// at least one set.
func NewCache(sizeBytes, ways int, lineBytes uint64) *Cache {
	sets := sizeBytes / (ways * int(lineBytes))
	if sets < 1 {
		sets = 1
	}
	c := &Cache{sets: sets, ways: ways, lineBytes: lineBytes}
	c.tags = make([][]uint64, sets)
	c.stamp = make([][]uint64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.stamp[i] = make([]uint64, ways)
	}
	return c
}

// Access probes the line containing addr, filling on miss. Returns true on
// hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	line := addr / c.lineBytes
	set := int(line) % c.sets
	tag := line | 1<<63 // mark valid
	victim, oldest := 0, ^uint64(0)
	for w := 0; w < c.ways; w++ {
		if c.tags[set][w] == tag {
			c.stamp[set][w] = c.clock
			c.Hits++
			return true
		}
		if c.stamp[set][w] < oldest {
			oldest = c.stamp[set][w]
			victim = w
		}
	}
	c.tags[set][victim] = tag
	c.stamp[set][victim] = c.clock
	c.Misses++
	return false
}

// Reset empties the cache and zeroes its counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		for w := range c.tags[i] {
			c.tags[i][w] = 0
			c.stamp[i][w] = 0
		}
	}
	c.Hits, c.Misses, c.clock = 0, 0, 0
}

// LineBytes exposes the line size.
func (c *Cache) LineBytes() uint64 { return c.lineBytes }
