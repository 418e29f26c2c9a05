package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"jetstream/internal/service"
)

// conn is one HTTP connection to the daemon: a client whose transport may
// open exactly one TCP connection, used by exactly one goroutine, so requests
// on it are strictly sequential.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON response into out (nil to
// discard). Any other status, transport error or timeout is an error.
func (c *conn) do(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// maxConns is the connection budget: the load comes from this one process
// over at most one connection per CPU.
func maxConns() int { return runtime.NumCPU() }

// checkConns refuses a workload that asks for more connections than CPUs.
func checkConns(w workload) error {
	if w.conns > maxConns() {
		return fmt.Errorf("workload %s wants %d connections but this box has %d CPUs; the harness drives at most one connection per CPU", w.name, w.conns, maxConns())
	}
	return nil
}

// tenantStream is one tenant's batch sequence as seen by the connection that owns
// it: the bodies and how many have been sent and acknowledged.
type tenantStream struct {
	idx   int // tenant index in the workload
	in    *tenantInput
	path  string
	next  int
	acked int
}

// sendNext posts the tenant's next batch and checks the daemon's batch count
// against the number acknowledged so far.
func (s *tenantStream) sendNext(c *conn) error {
	var resp service.BatchResponse
	body := s.in.bodies[s.next]
	s.next++
	if err := c.do("POST", s.path, body, &resp); err != nil {
		return err
	}
	s.acked++
	if resp.Batches != uint64(s.acked) {
		return fmt.Errorf("%s: daemon reports %d batches after ack %d", s.in.spec.name, resp.Batches, s.acked)
	}
	return nil
}

// lane is one connection with the tenants it owns.
type lane struct {
	c       *conn
	streams []*tenantStream
}

// newLanes assigns tenants to connections in contiguous blocks, so with a
// kernel rotation every connection carries every kernel.
func newLanes(base string, conns int, ins []*tenantInput) []*lane {
	lanes := make([]*lane, conns)
	for k := range lanes {
		lanes[k] = &lane{c: newConn(base)}
	}
	for i, in := range ins {
		k := i * conns / len(ins)
		lanes[k].streams = append(lanes[k].streams, &tenantStream{idx: i, in: in, path: "/v1/tenants/" + in.spec.name + "/batch"})
	}
	return lanes
}

// phaseStats is what one phase measured: exact client-side samples.
type phaseStats struct {
	lat []time.Duration // per request: closed = round trip, paced = due -> ack
	lag []time.Duration // paced only: due -> request actually started
	who []int           // paced only: the tenant each request went to
	// rates holds, per connection, the throughput of each of rateSlices
	// equal-count slices of its closed-loop stream, in requests per second.
	rates     [][]float64
	wall      time.Duration
	attempted int
	failed    int
	firstErr  error
}

func (p *phaseStats) merge(o *phaseStats) {
	p.lat = append(p.lat, o.lat...)
	p.lag = append(p.lag, o.lag...)
	p.who = append(p.who, o.who...)
	p.rates = append(p.rates, o.rates...)
	p.attempted += o.attempted
	p.failed += o.failed
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
	if o.wall > p.wall {
		p.wall = o.wall
	}
}

func (p *phaseStats) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// eachLane runs fn on every lane concurrently and merges the results; wall is
// the time until the last lane finished.
func eachLane(lanes []*lane, fn func(k int, l *lane) *phaseStats) *phaseStats {
	parts := make([]*phaseStats, len(lanes))
	var wg sync.WaitGroup
	for k, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[k] = fn(k, l)
		}()
	}
	wg.Wait()
	total := &phaseStats{}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// runClosed is the closed loop: each connection sends perTenant batches to
// each of its tenants round-robin, the next as soon as the previous is acked.
func runClosed(lanes []*lane, perTenant int) *phaseStats {
	return eachLane(lanes, func(_ int, l *lane) *phaseStats {
		ps := &phaseStats{}
		start := time.Now()
		for round := 0; round < perTenant; round++ {
			for _, s := range l.streams {
				t := time.Now()
				err := s.sendNext(l.c)
				ps.lat = append(ps.lat, time.Since(t))
				ps.attempted++
				if err != nil {
					ps.fail(err)
				}
			}
		}
		ps.wall = time.Since(start)
		ps.rates = [][]float64{sliceRates(ps.lat)}
		return ps
	})
}

// rateSlices is how many equal-count slices a closed-loop stream is cut into.
const rateSlices = 16

// sliceRates cuts one connection's back-to-back round trips into rateSlices
// consecutive slices and returns each slice's throughput.
func sliceRates(lat []time.Duration) []float64 {
	k := min(rateSlices, len(lat))
	rates := make([]float64, 0, k)
	for c := 0; c < k; c++ {
		part := lat[c*len(lat)/k : (c+1)*len(lat)/k]
		var sum time.Duration
		for _, d := range part {
			sum += d
		}
		rates = append(rates, float64(len(part))/sum.Seconds())
	}
	return rates
}

// typicalRate is the closed-phase throughput: each connection's median slice
// rate, summed over the connections, which run side by side. The median over
// slices is what the system sustains in a typical fifth of a second; one slow
// slice — a noisy neighbour on the box, or the one batch in a thousand whose
// deletion resets half the graph — moves the mean but not this.
func (p *phaseStats) typicalRate() float64 {
	var total float64
	for _, r := range p.rates {
		total += median(r)
	}
	return total
}

// typicalLatency is the paced-phase median latency in ms: each tenant's own
// median, averaged over the tenants. Pooling first would not do: with two
// tenants of different cost the pooled median sits in the gap between the two
// populations and jumps from one to the other on a handful of samples.
func (p *phaseStats) typicalLatency(tenants int) float64 {
	per := make([][]time.Duration, tenants)
	for i, d := range p.lat {
		per[p.who[i]] = append(per[p.who[i]], d)
	}
	var sum float64
	for _, ds := range per {
		sum += quantile(millis(ds), 0.50)
	}
	return sum / float64(tenants)
}

// trimmedMean is the mean of the sorted samples up to the q-quantile: the
// mean latency with the slowest 1-q of the requests left out.
func trimmedMean(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	n := max(1, int(math.Ceil(q*float64(len(sorted)))))
	return sumOf(sorted[:n]) / float64(n)
}

// reportPaced writes the paced-phase latency metrics from the lives' exact
// samples, each life's figure taken to reference speed and the median over
// the lives reported: the typical latency, and the mean with the slowest 1 %
// left out. The whole-run p99 is printed, not gated: a run holds a handful of
// catastrophic batches (a deletion that resets half the graph) and of stalls
// of the box itself, each of which also delays the requests queued behind it,
// and the p99 lands among those few events — it moves by half from run to
// run where the trimmed mean, which weighs the whole tail below them, does not.
func reportPaced(r *result, lives []*life, tenants int) {
	var p50s, means, lags []float64
	pooled := &phaseStats{}
	for _, lf := range lives {
		p50s = append(p50s, lf.paced.typicalLatency(tenants)*lf.speed)
		means = append(means, trimmedMean(millis(lf.paced.lat), 0.99)*lf.speed)
		lags = append(lags, quantile(millis(lf.paced.lag), 0.99))
		pooled.merge(lf.paced)
	}
	r.metrics["paced_p50_ms"] = median(p50s)
	r.metrics["paced_mean_ms"] = median(means)
	r.metrics["loadgen.send_lag_p99_ms"] = median(lags)
	lat := millis(pooled.lat)
	tail := supportedTail(len(lat))
	r.note("paced phase: %d samples over %d lives, timed from the instant each was due; paced_p50_ms: a life's figure is the average of its %d tenants' medians; paced_mean_ms: the mean of a life's samples without its slowest 1 %%; send lag p99 %.3f ms",
		len(lat), len(lives), tenants, median(lags))
	r.note("paced phase, raw and pooled, not gated: p50 %.3f ms, mean %.3f ms, paced_p99_ms %.3f ms; the highest percentile with 10 samples beyond it is p%g = %.3f ms",
		quantile(lat, 0.50), sumOf(lat)/float64(len(lat)), quantile(lat, 0.99), 100*tail, quantile(lat, tail))
}

// clock is the time source of the open-loop schedule; tests inject a fake.
type clock interface {
	now() time.Time
	sleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }
func (wallClock) sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runSchedule is the open loop of one connection: request i is due at
// start + i*interval whether or not earlier ones have finished. A request
// that cannot start on time because the connection is still busy starts as
// soon as it can; its latency is still counted from the instant it was due,
// so a stall is charged to every request queued behind it, and lag records
// how late each one started.
func runSchedule(clk clock, start time.Time, interval time.Duration, n int, send func(i int) error) *phaseStats {
	ps := &phaseStats{lat: make([]time.Duration, 0, n), lag: make([]time.Duration, 0, n)}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		clk.sleepUntil(due)
		began := clk.now()
		err := send(i)
		done := clk.now()
		ps.lag = append(ps.lag, began.Sub(due))
		ps.lat = append(ps.lat, done.Sub(due))
		ps.attempted++
		if err != nil {
			ps.fail(err)
		}
	}
	ps.wall = clk.now().Sub(start)
	return ps
}

// runPaced is the paced phase: rate batches per second over all connections,
// each connection on its own fixed schedule, offset so arrivals interleave.
func runPaced(lanes []*lane, perTenant int, rate float64) *phaseStats {
	interval := time.Duration(float64(len(lanes)) / rate * float64(time.Second))
	start := time.Now().Add(10 * time.Millisecond)
	return eachLane(lanes, func(k int, l *lane) *phaseStats {
		offset := time.Duration(k) * interval / time.Duration(len(lanes))
		n := perTenant * len(l.streams)
		ps := runSchedule(wallClock{}, start.Add(offset), interval, n, func(i int) error {
			return l.streams[i%len(l.streams)].sendNext(l.c)
		})
		for i := 0; i < n; i++ {
			ps.who = append(ps.who, l.streams[i%len(l.streams)].idx)
		}
		return ps
	})
}

// fetchState reads one tenant's state over HTTP, decoding it and checking its
// CRC — the whole read path a consumer pays.
func fetchState(c *conn, name string) ([]float64, uint64, error) {
	var sr service.StateResponse
	if err := c.do("GET", "/v1/tenants/"+name+"/state", nil, &sr); err != nil {
		return nil, 0, err
	}
	state, err := service.DecodeState(sr.State, sr.CRC64)
	if err != nil {
		return nil, 0, err
	}
	return state, sr.Batches, nil
}

// checkTenants fetches every tenant's state and counts the ones that are not
// bitwise the wanted reference or whose batch count is not the acknowledged
// count — an acknowledged batch gone missing shows as either.
func checkTenants(c *conn, ins []*tenantInput, want func(*tenantInput) ([]float64, int), ps *phaseStats, when string) {
	for _, in := range ins {
		ref, acked := want(in)
		ps.attempted++
		state, batches, err := fetchState(c, in.spec.name)
		switch {
		case err != nil:
			ps.fail(fmt.Errorf("%s: state %s: %w", in.spec.name, when, err))
		case batches != uint64(acked):
			ps.fail(fmt.Errorf("%s: %d batches %s, %d acknowledged", in.spec.name, batches, when, acked))
		case !bitwiseEqual(state, ref):
			ps.fail(fmt.Errorf("%s: state %s is not bitwise the sequential reference", in.spec.name, when))
		}
	}
}
