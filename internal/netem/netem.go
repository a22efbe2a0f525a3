// Package netem emulates wide-area network links over in-process TCP
// connections.
//
// The APPx evaluation (§6.2 of the paper) places the emulated handset behind
// a 55 ms RTT / 25 Mbps link to the proxy, and sweeps the proxy↔origin RTT
// between 50 and 150 ms. This package provides that substrate: a Link
// describes one direction-symmetric hop (propagation delay = RTT/2 each way,
// plus store-and-forward serialization at a configured bandwidth), and
// Dialer/Listener wrap net.Conn so that every byte crossing the hop pays the
// configured cost.
//
// The emulation is a classic store-and-forward model: each written chunk is
// released to the underlying connection at
//
//	release = max(previous release, now) + len/bandwidth
//
// and becomes visible to the peer RTT/2 later. Both directions are shaped,
// so a request/response exchange pays one full RTT plus serialization, just
// like a real link.
package netem

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// Link describes one emulated hop.
type Link struct {
	// RTT is the round-trip propagation delay of the hop. Each direction
	// delays delivery by RTT/2.
	RTT time.Duration
	// Bandwidth is the link rate in bits per second. Zero means unlimited.
	Bandwidth int64
}

// Mobile4G reflects the average 4G access link the paper configures between
// client and proxy: 55 ms RTT, 25 Mbps.
func Mobile4G() Link {
	return Link{RTT: 55 * time.Millisecond, Bandwidth: 25_000_000}
}

// serializationDelay returns the time n bytes occupy the link.
func (l Link) serializationDelay(n int) time.Duration {
	if l.Bandwidth <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) * 8 / float64(l.Bandwidth) * float64(time.Second))
}

// Dialer dials TCP connections shaped by a Link.
type Dialer struct {
	Link Link
	// Timeout bounds connection establishment (not shaped). Zero means no
	// bound beyond the context's.
	Timeout time.Duration
}

// DialContext connects to addr and returns a shaped connection.
func (d *Dialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	nd := net.Dialer{Timeout: d.Timeout}
	c, err := nd.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return WrapConn(c, d.Link), nil
}

// Listener wraps an accepting listener so every accepted connection is
// shaped by the Link. Shape a hop on exactly one side (dialer or listener),
// not both, or the hop pays double.
type Listener struct {
	net.Listener
	Link Link
}

// Accept waits for a connection and wraps it.
func (ln *Listener) Accept() (net.Conn, error) {
	c, err := ln.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(c, ln.Link), nil
}

// WrapConn shapes an existing connection with the link model in both
// directions.
func WrapConn(c net.Conn, link Link) net.Conn {
	if link.RTT <= 0 && link.Bandwidth <= 0 {
		return c
	}
	sc := &shapedConn{
		Conn:  c,
		link:  link,
		inbox: newDelayQueue(),
	}
	sc.done = make(chan struct{})
	go sc.readLoop()
	return sc
}

// shapedConn delays and paces both directions.
//
// Writes are paced synchronously: Write sleeps until the chunk's release
// time. The propagation component of the write direction and the whole read
// direction are applied on the read side via a delay queue filled by a
// background reader goroutine (bytes become visible RTT/2 after arrival,
// which combined with the peer's own send shaping yields the full RTT per
// exchange when both endpoints wrap their conn — or here, where only one
// side wraps, the single wrapper charges both directions itself).
type shapedConn struct {
	net.Conn
	link Link

	mu          sync.Mutex
	nextRelease time.Time

	inbox *delayQueue
	done  chan struct{}
}

func (c *shapedConn) Write(p []byte) (int, error) {
	// Pace by serialization delay and hold the propagation delay before the
	// bytes reach the wire, emulating the one-way trip.
	c.mu.Lock()
	now := time.Now()
	rel := c.nextRelease
	if rel.Before(now) {
		rel = now
	}
	rel = rel.Add(c.link.serializationDelay(len(p)))
	c.nextRelease = rel
	c.mu.Unlock()

	delay := time.Until(rel.Add(c.link.RTT / 2))
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-c.done:
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Write(p)
}

func (c *shapedConn) readLoop() {
	buf := make([]byte, 32*1024)
	for {
		n, err := c.Conn.Read(buf)
		if n > 0 {
			data := make([]byte, n)
			copy(data, buf[:n])
			// Inbound propagation + serialization for the return direction.
			ready := time.Now().Add(c.link.RTT/2 + c.link.serializationDelay(n))
			c.inbox.push(chunk{data: data, readyAt: ready})
		}
		if err != nil {
			c.inbox.closeWith(err)
			return
		}
	}
}

func (c *shapedConn) Read(p []byte) (int, error) {
	return c.inbox.read(p, c.done)
}

func (c *shapedConn) Close() error {
	c.mu.Lock()
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// chunk is a delayed unit of inbound data.
type chunk struct {
	data    []byte
	readyAt time.Time
}

// delayQueue delivers chunks no earlier than their readyAt instants, in
// order. Waiting readers are woken through channels rather than a sync.Cond:
// the signal channel's one-token buffer means a push that lands between a
// reader releasing the lock and entering its select leaves the token behind,
// so the wakeup cannot be lost.
type delayQueue struct {
	mu     sync.Mutex
	signal chan struct{} // capacity 1: "queue state changed" hint
	closed chan struct{} // closed once err is set
	chunks []chunk
	err    error
}

func newDelayQueue() *delayQueue {
	return &delayQueue{signal: make(chan struct{}, 1), closed: make(chan struct{})}
}

func (q *delayQueue) push(c chunk) {
	q.mu.Lock()
	q.chunks = append(q.chunks, c)
	q.mu.Unlock()
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

func (q *delayQueue) closeWith(err error) {
	if err == nil {
		err = errors.New("netem: stream closed")
	}
	q.mu.Lock()
	first := q.err == nil
	if first {
		q.err = err
	}
	q.mu.Unlock()
	if first {
		close(q.closed)
	}
}

func (q *delayQueue) read(p []byte, done <-chan struct{}) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		select {
		case <-done:
			return 0, net.ErrClosed
		default:
		}
		if len(q.chunks) > 0 {
			head := &q.chunks[0]
			wait := time.Until(head.readyAt)
			if wait > 0 {
				// Sleep outside the lock, then re-check.
				q.mu.Unlock()
				select {
				case <-time.After(wait):
				case <-done:
					q.mu.Lock()
					return 0, net.ErrClosed
				}
				q.mu.Lock()
				continue
			}
			n := copy(p, head.data)
			if n == len(head.data) {
				// Clear the slot before popping it, and let the backing
				// array go once it is drained: an idle connection must not
				// pin the bytes it already delivered.
				q.chunks[0] = chunk{}
				q.chunks = q.chunks[1:]
				if len(q.chunks) == 0 {
					q.chunks = nil
				}
			} else {
				head.data = head.data[n:]
			}
			return n, nil
		}
		if q.err != nil {
			return 0, q.err
		}
		// Wait for a push or close; a stale token just re-runs the loop.
		q.mu.Unlock()
		select {
		case <-q.signal:
		case <-q.closed:
		case <-done:
			q.mu.Lock()
			return 0, net.ErrClosed
		}
		q.mu.Lock()
	}
}
