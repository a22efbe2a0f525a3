package netem

import (
	"context"
	"net"
	"time"
)

// TransferTime estimates the total time for a payload of n bytes to cross
// the hop in one direction (propagation + serialization). The experiment
// harness uses it for sanity checks.
func (l Link) TransferTime(n int) time.Duration {
	return l.RTT/2 + l.serializationDelay(n)
}

// Dial connects to addr and returns a shaped connection.
func (d *Dialer) Dial(network, addr string) (net.Conn, error) {
	return d.DialContext(context.Background(), network, addr)
}

// Stats returns the event counts injected for one host so far.
func (in *Injector) Stats(host string) FaultStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.stats[host]; st != nil {
		return *st
	}
	return FaultStats{}
}

// Dial connects like net.Dial but subject to host's fault model: the
// attempt may be refused, and the returned connection is wrapped.
func (in *Injector) Dial(network, addr, host string) (net.Conn, error) {
	if in.ConnectRefused(host) {
		return nil, ErrInjectedRefusal
	}
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return in.WrapConn(c, host), nil
}

// Listener wraps ln so every accepted connection runs through host's fault
// model (refusals become immediate closes of the accepted connection).
func (in *Injector) Listener(ln net.Listener, host string) net.Listener {
	return &faultListener{Listener: ln, in: in, host: host}
}

type faultListener struct {
	net.Listener
	in   *Injector
	host string
}

func (fl *faultListener) Accept() (net.Conn, error) {
	for {
		c, err := fl.Listener.Accept()
		if err != nil {
			return nil, err
		}
		// A "refused" connect on the accept side: close immediately so the
		// peer sees the connection die during establishment.
		if fl.in.ConnectRefused(fl.host) {
			c.Close()
			continue
		}
		return fl.in.WrapConn(c, fl.host), nil
	}
}
