// Package noc models the on-chip crossbar connecting the event generation
// streams to the queue bins (paper §4.4: "32 generators of 8 processing
// engines share the input ports of the 16x16 crossbar, and the output ports
// are shared among the queue bins").
package noc

// Crossbar is an NxM crossbar where each output port accepts one flit per
// cycle and each input port injects one flit per cycle. The timing layer
// asks for the number of cycles a batch of routed flits needs; with ideal
// scheduling that is the maximum port load, plus a pipeline fill latency.
type Crossbar struct {
	Inputs, Outputs int
	HeadLatency     uint64 // cycles for the first flit through the switch
}

// New returns an n-input, m-output crossbar with a 2-cycle head latency.
func New(n, m int) *Crossbar {
	return &Crossbar{Inputs: n, Outputs: m, HeadLatency: 2}
}

// SpreadCycles returns the cycles to deliver flits spread over the source
// and destination ports with a uniform hash. It upper-bounds port load by the
// ceiling of a balanced spread times a mild imbalance factor — vertex-id
// hashing is not perfectly uniform in practice.
func (x *Crossbar) SpreadCycles(flits uint64) uint64 {
	if flits == 0 {
		return 0
	}
	ports := uint64(x.Outputs)
	if uint64(x.Inputs) < ports {
		ports = uint64(x.Inputs)
	}
	load := (flits + ports - 1) / ports
	// 25% imbalance margin.
	load += load / 4
	return load + x.HeadLatency
}
