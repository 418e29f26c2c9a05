// Package pad centralizes the cache-line geometry the hot-path data
// structures are laid out against. Sharded queues, per-worker stats blocks
// and event records all want the same two guarantees:
//
//   - a record that is mutated by one goroutine never shares a cache line
//     with a record mutated by another (no false sharing), and
//   - a record that is read as a unit never straddles a line boundary
//     (one miss resolves the whole record).
//
// Both are enforced at compile time at each use site with the
// constant-underflow idiom:
//
//	const _ = uint(pad.LineSize - unsafe.Sizeof(T{})) // T is ≤ one line
//	const _ = uint(unsafe.Sizeof(T{}) - pad.LineSize) // …and exactly one line
//
// unsafe.Sizeof of a concrete type is an untyped constant, so an oversized
// struct makes the subtraction negative and the uint conversion a compile
// error — the assertion costs nothing at runtime and cannot be skipped.
package pad

// LineSize is the cache-line size the layout targets. 64 bytes is the line
// size of every x86-64 and almost every arm64 part the simulator runs on;
// a platform with 128-byte lines wastes half a line of padding but keeps
// every correctness property (padding is conservative in that direction).
const LineSize = 64

// Line is one cache line of dead bytes. Embed it (as a blank field) between
// a struct's shared-read prefix and its mutated-by-one-owner region, and
// again after that region, so any line that holds the hot fields holds
// nothing another core writes.
type Line [LineSize]byte
