package noc

import "sync/atomic"

// Matrix counts per-(source, destination) transfers across the crossbar. The
// parallel engine's per-pair outboxes mirror the crossbar's ports, so each
// cross-worker event delivery is one cell increment. Cells are atomics:
// workers add concurrently without coordination, and an exporter may read the
// matrix while a phase is running.
type Matrix struct {
	k     int
	cells []atomic.Uint64 // row-major k*k
}

// NewMatrix returns a k-port transfer matrix.
func NewMatrix(k int) *Matrix {
	return &Matrix{k: k, cells: make([]atomic.Uint64, k*k)}
}

// K returns the port count.
func (m *Matrix) K() int { return m.k }

// Add records n transfers from src to dst.
func (m *Matrix) Add(src, dst int, n uint64) {
	m.cells[src*m.k+dst].Add(n)
}

// Load returns the transfer count from src to dst.
func (m *Matrix) Load(src, dst int) uint64 {
	return m.cells[src*m.k+dst].Load()
}

// Snapshot copies the matrix as a k*k row-major slice.
func (m *Matrix) Snapshot() []uint64 {
	out := make([]uint64, len(m.cells))
	for i := range m.cells {
		out[i] = m.cells[i].Load()
	}
	return out
}
