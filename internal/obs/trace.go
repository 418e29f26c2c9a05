package obs

import "sync"

// Kind identifies what a TraceEvent describes.
type Kind uint8

const (
	// KindBatchStart marks the start of a batch that commits (a folded log
	// tail is one batch). A carries the first batch index, B the number of
	// updates handed to the engine.
	KindBatchStart Kind = iota
	// KindBatchEnd marks the end of a batch. A carries the last batch
	// index, B the events processed in the batch, F the batch latency in
	// seconds when the caller timed it (0 otherwise).
	KindBatchEnd
	// KindPhaseStart marks a scheduler phase beginning. A carries the
	// cumulative phase index.
	KindPhaseStart
	// KindPhaseEnd marks a scheduler phase completing. A carries the
	// cumulative phase index, B the events processed during the phase.
	KindPhaseEnd
	// KindWorkerDrain reports one worker finishing its share of a parallel
	// phase. Worker is the PE id; A carries events processed, B events
	// forwarded to other workers.
	KindWorkerDrain
	// KindWorkerMail reports a cross-worker mail delivery, one per non-empty
	// outbox per superstep. Worker is the sending PE; A the destination PE, B
	// the event count.
	KindWorkerMail
	// KindWatchdog reports a divergence-watchdog check that actually sampled
	// state. A carries the batch index, B is 1, F the observed divergence.
	KindWatchdog
	// KindFallback reports a cold-start fallback recomputation. A carries
	// the cumulative fallback count.
	KindFallback
)

var kindNames = [...]string{
	"batch-start", "batch-end", "phase-start", "phase-end",
	"worker-drain", "worker-mail", "watchdog", "fallback",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// TraceEvent is one instrumentation event. It is a plain value struct so
// passing it through the Tracer interface does not allocate; the meaning of
// A, B, and F depends on Kind (see the Kind constants). Seq is a per-source
// monotonic sequence number; Worker is the PE id where that applies, -1
// otherwise.
type TraceEvent struct {
	Kind   Kind
	Seq    uint64
	Worker int
	A, B   uint64
	F      float64
}

// Tracer receives instrumentation events. Implementations must be safe for
// concurrent use: parallel workers trace without synchronization. A Tracer
// should return quickly — it runs on the engine's hot path boundaries.
type Tracer interface {
	Trace(TraceEvent)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(TraceEvent)

// Trace calls f(e).
func (f TracerFunc) Trace(e TraceEvent) { f(e) }

// Nop is a Tracer that discards every event. Instrumented code may hold it
// instead of a nil check; the call devirtualizes to nothing.
var Nop Tracer = nopTracer{}

type nopTracer struct{}

func (nopTracer) Trace(TraceEvent) {}

// Collector is a Tracer that records every event, for tests.
type Collector struct {
	mu     sync.Mutex
	events []TraceEvent
}

// Trace appends e.
func (c *Collector) Trace(e TraceEvent) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (c *Collector) Events() []TraceEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]TraceEvent(nil), c.events...)
}

// Count returns how many events of kind k were recorded.
func (c *Collector) Count(k Kind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}
