package netem

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// FaultDir restricts a fault's delay behaviours (stalls, spikes, drips) to
// one transfer direction, modelling asymmetric mobile paths where one
// direction of a link degrades while the other stays clean. Resets and
// refusals are connection-level events and always apply regardless of
// direction.
type FaultDir int

const (
	// DirBoth applies delay faults to reads and writes alike (the default).
	DirBoth FaultDir = iota
	// DirRead applies delay faults only to reads — the peer's responses
	// arrive late or trickle in, but our sends leave promptly.
	DirRead
	// DirWrite applies delay faults only to writes — our sends crawl while
	// the peer's responses arrive clean.
	DirWrite
)

// Fault describes the failure behaviour of one origin host's link. All
// probabilities are in [0, 1]; zero-valued faults inject nothing.
//
// The model covers the origin-side pathologies a mobile acceleration proxy
// meets in the wild: servers that stop accepting connections, connections
// cut mid-response, transient latency spikes, and stalls where the peer
// stays connected but sends nothing.
type Fault struct {
	// ConnectRefuseProb is the probability a new connection attempt is
	// refused outright.
	ConnectRefuseProb float64
	// ResetProb is the per-I/O-operation probability the connection is
	// reset (the operation fails and the connection becomes unusable).
	ResetProb float64
	// SpikeProb is the per-I/O-operation probability of an added latency
	// spike of SpikeDelay.
	SpikeProb float64
	// SpikeDelay is the extra delay charged when a spike fires.
	SpikeDelay time.Duration
	// StallProb is the per-I/O-operation probability the operation hangs
	// for StallDelay before proceeding (a slowloris-style stall).
	StallProb float64
	// StallDelay is how long a stall lasts.
	StallDelay time.Duration
	// Dir restricts stalls, spikes, and drips to one transfer direction
	// (DirBoth applies them to reads and writes alike). Resets and refusals
	// ignore it: a dead connection is dead in both directions.
	Dir FaultDir
	// DripBytes, with DripDelay, turns affected writes into a slow drip:
	// every write is chopped into DripBytes-sized chunks with DripDelay
	// between them — the peer stays connected and data flows, just
	// painfully. Unlike the probabilistic faults, a configured drip applies
	// to every affected write.
	DripBytes int
	// DripDelay is the pause between drip chunks.
	DripDelay time.Duration
}

// zero reports whether the fault injects nothing.
func (f Fault) zero() bool {
	return f.ConnectRefuseProb <= 0 && f.ResetProb <= 0 && f.SpikeProb <= 0 && f.StallProb <= 0 &&
		(f.DripBytes <= 0 || f.DripDelay <= 0)
}

// dripping reports whether the fault slow-drips affected writes.
func (f Fault) dripping() bool { return f.DripBytes > 0 && f.DripDelay > 0 }

// affects reports whether the fault's delay behaviours apply to dir.
func (f Fault) affects(dir FaultDir) bool {
	return f.Dir == DirBoth || f.Dir == dir
}

// Partition is the fault that fully severs a link: every new connection is
// refused and every in-flight operation resets. Pair with Injector.Sever so
// pooled keep-alive connections die too, not just future dials.
func Partition() Fault {
	return Fault{ConnectRefuseProb: 1, ResetProb: 1}
}

// ErrInjectedReset is returned by reads and writes on a connection the
// injector has reset mid-stream.
var ErrInjectedReset = errors.New("netem: connection reset (injected fault)")

// ErrInjectedRefusal is returned for connection attempts the injector
// refuses.
var ErrInjectedRefusal = errors.New("netem: connection refused (injected fault)")

// FaultStats counts the events one host's fault configuration has injected.
type FaultStats struct {
	Refusals int
	Resets   int
	Spikes   int
	Stalls   int
	// Drips counts writes that were slow-dripped in chunks.
	Drips int
	// Severed counts live connections killed by Sever.
	Severed int
}

// Injector draws fault decisions from a single seeded source, so a fixed
// seed and a fixed sequence of operations reproduce the exact same failure
// pattern. Safe for concurrent use; determinism across runs additionally
// requires a deterministic operation order (single-threaded drivers).
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults map[string]Fault
	stats  map[string]*FaultStats
	// conns tracks live wrapped connections per host so Sever can cut a
	// link's pooled keep-alives, not just refuse its future dials.
	conns map[string]map[*faultConn]struct{}
}

// NewInjector returns an injector seeded for reproducible draws.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		faults: map[string]Fault{},
		stats:  map[string]*FaultStats{},
		conns:  map[string]map[*faultConn]struct{}{},
	}
}

// SetFault installs (or replaces) the fault model for one host.
func (in *Injector) SetFault(host string, f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults[host] = f
}

// Fault returns the host's current fault model (zero when none is set).
func (in *Injector) Fault(host string) Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults[host]
}

// Sever kills every live wrapped connection for host: blocked reads and
// writes return immediately and the transport sockets close, so pooled
// keep-alive connections cannot tunnel through a partition installed with
// SetFault. Returns how many connections were cut.
func (in *Injector) Sever(host string) int {
	in.mu.Lock()
	victims := make([]*faultConn, 0, len(in.conns[host]))
	for c := range in.conns[host] {
		victims = append(victims, c)
	}
	in.stat(host).Severed += len(victims)
	in.mu.Unlock()
	// kill takes each conn's own lock and re-enters in.mu via unregister;
	// never hold in.mu across it.
	for _, c := range victims {
		c.kill()
	}
	return len(victims)
}

func (in *Injector) register(c *faultConn) {
	in.mu.Lock()
	set := in.conns[c.host]
	if set == nil {
		set = map[*faultConn]struct{}{}
		in.conns[c.host] = set
	}
	set[c] = struct{}{}
	in.mu.Unlock()
}

func (in *Injector) unregister(c *faultConn) {
	in.mu.Lock()
	delete(in.conns[c.host], c)
	in.mu.Unlock()
}

func (in *Injector) stat(host string) *FaultStats {
	st := in.stats[host]
	if st == nil {
		st = &FaultStats{}
		in.stats[host] = st
	}
	return st
}

// ConnectRefused draws the connect-refusal decision for one attempt against
// host. Callers that establish their own connections (custom dialers, fake
// upstreams in tests) use it as the decision engine without real sockets.
func (in *Injector) ConnectRefused(host string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	f := in.faults[host]
	if f.ConnectRefuseProb <= 0 {
		return false
	}
	if in.rng.Float64() < f.ConnectRefuseProb {
		in.stat(host).Refusals++
		return true
	}
	return false
}

// ioDecision is one pre-I/O draw: at most one fault fires per operation,
// checked in severity order (reset > stall > spike); an active drip rides
// along independently on writes.
type ioDecision struct {
	reset     bool
	delay     time.Duration
	dripBytes int
	dripDelay time.Duration
}

func (in *Injector) drawIO(host string, dir FaultDir) ioDecision {
	in.mu.Lock()
	defer in.mu.Unlock()
	f := in.faults[host]
	if f.zero() {
		return ioDecision{}
	}
	var d ioDecision
	if dir == DirWrite && f.dripping() && f.affects(DirWrite) {
		d.dripBytes, d.dripDelay = f.DripBytes, f.DripDelay
	}
	affected := f.affects(dir)
	switch {
	case f.ResetProb > 0 && in.rng.Float64() < f.ResetProb:
		in.stat(host).Resets++
		return ioDecision{reset: true}
	case affected && f.StallProb > 0 && in.rng.Float64() < f.StallProb:
		in.stat(host).Stalls++
		d.delay = f.StallDelay
	case affected && f.SpikeProb > 0 && in.rng.Float64() < f.SpikeProb:
		in.stat(host).Spikes++
		d.delay = f.SpikeDelay
	}
	return d
}

// WrapConn runs an existing connection through host's fault model: each
// read and write may be delayed (spike/stall) or fail with an injected
// reset. Compose with the Link shaping of WrapConn/Listener to emulate a
// flaky WAN hop.
func (in *Injector) WrapConn(c net.Conn, host string) net.Conn {
	if in == nil {
		return c
	}
	fc := &faultConn{Conn: c, in: in, host: host}
	in.register(fc)
	return fc
}

// DialContext is Dial with context plumbing, shaped to back a dial function
// such as cluster.Config.Dial: the attempt may be refused, honours ctx
// cancellation while connecting, and the returned connection is wrapped in
// host's fault model.
func (in *Injector) DialContext(ctx context.Context, network, addr, host string) (net.Conn, error) {
	if in.ConnectRefused(host) {
		return nil, ErrInjectedRefusal
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return in.WrapConn(c, host), nil
}

// faultConn applies per-operation fault draws to both directions.
type faultConn struct {
	net.Conn
	in   *Injector
	host string

	mu    sync.Mutex
	dead  bool
	donec chan struct{} // lazily built close signal for interruptible delays
}

func (c *faultConn) done() chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.donec == nil {
		c.donec = make(chan struct{})
		if c.dead {
			close(c.donec)
		}
	}
	return c.donec
}

// apply performs one fault draw for dir; it returns the decision and an
// error when the connection is (or becomes) reset.
func (c *faultConn) apply(dir FaultDir) (ioDecision, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return ioDecision{}, ErrInjectedReset
	}
	c.mu.Unlock()
	d := c.in.drawIO(c.host, dir)
	if d.reset {
		c.kill()
		return d, ErrInjectedReset
	}
	if d.delay > 0 {
		if err := c.sleep(d.delay); err != nil {
			return d, err
		}
	}
	return d, nil
}

// sleep waits interruptibly: a kill (reset or Sever) or Close wakes it.
func (c *faultConn) sleep(d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.done():
		return net.ErrClosed
	}
}

// kill marks the connection dead and severs the transport so blocked peers
// notice.
func (c *faultConn) kill() {
	c.mu.Lock()
	if !c.dead {
		c.dead = true
		if c.donec != nil {
			close(c.donec)
		}
	}
	c.mu.Unlock()
	c.in.unregister(c)
	c.Conn.Close()
}

func (c *faultConn) Read(p []byte) (int, error) {
	if _, err := c.apply(DirRead); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	d, err := c.apply(DirWrite)
	if err != nil {
		return 0, err
	}
	if d.dripBytes <= 0 || len(p) <= d.dripBytes {
		return c.Conn.Write(p)
	}
	// Slow drip: the bytes all go out, chunk by chunk, with a pause between
	// chunks — a link that works but crawls. One drip event per write.
	c.in.mu.Lock()
	c.in.stat(c.host).Drips++
	c.in.mu.Unlock()
	written := 0
	for written < len(p) {
		if written > 0 {
			if err := c.sleep(d.dripDelay); err != nil {
				return written, err
			}
		}
		end := written + d.dripBytes
		if end > len(p) {
			end = len(p)
		}
		n, err := c.Conn.Write(p[written:end])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

func (c *faultConn) Close() error {
	c.mu.Lock()
	if !c.dead {
		c.dead = true
		if c.donec != nil {
			close(c.donec)
		}
	}
	c.mu.Unlock()
	c.in.unregister(c)
	return c.Conn.Close()
}
