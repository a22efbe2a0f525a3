package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"appx/internal/httpmsg"
	"appx/internal/obs/adminv1"
)

// forwardResponseHeaderTimeout bounds how long a relay waits, from its
// start (dial and request write included), for the owner's response head;
// the owner runs the full origin path on a miss, so this must comfortably
// exceed an origin round trip. A variable so a test can shorten it.
var forwardResponseHeaderTimeout = 5 * time.Second

// peekBodyLimit bounds a sibling's entry response; anything larger than the
// cache would plausibly hold is a protocol error, not a fill.
const peekBodyLimit = 32 << 20

var errForwardHeadTimeout = errors.New("cluster: owner sent no response head in time")

// Forward relays r to the owner instance at addr and returns its response.
// Each peer is itself a forward proxy, so r goes to it with a proxy-form
// request line: the URL stays the origin URL the owner expects to key and
// match on. The caller has already stamped the hop and user headers.
// Network-level failure returns an error, as does a relay whose response
// head has not arrived within forwardResponseHeaderTimeout; any HTTP
// response — including the owner's own 5xx or 3xx — returns nil error and
// is the caller's policy decision.
func (c *Cluster) Forward(ctx context.Context, addr string, r *httpmsg.Request) (*httpmsg.Response, error) {
	// The head's deadline: a timer that cancels the relay's context unless
	// the head arrives first. The body then streams under ctx alone.
	ctx, cancel := context.WithCancel(ctx)
	head := time.AfterFunc(forwardResponseHeaderTimeout, cancel)
	resp, err := c.client.RoundTripVia(ctx, addr, r)
	if !head.Stop() {
		if err == nil {
			resp.CloseBody()
		}
		err = errForwardHeadTimeout
	}
	if err != nil {
		cancel()
		return nil, err
	}
	// Streaming: the relay copies owner→client without re-buffering the
	// body. The caller must finish it (WriteTo or DrainAndClose) on every
	// path, including fallbacks, or the peer connection leaks.
	resp.OnBodyClose(cancel)
	return resp, nil
}

// PeekEntry asks the sibling at addr whether its shared tier holds the
// canonical key, giving it ProbeTimeout for the whole answer. Returns
// (entry, true, nil) on a hit, (nil, false, nil) on a clean miss, and an
// error for anything else (the caller feeds errors into the peer's breaker
// via ReportForward).
func (c *Cluster) PeekEntry(ctx context.Context, addr, key string) (*adminv1.ClusterEntry, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	resp, err := c.client.RoundTrip(ctx, &httpmsg.Request{Method: http.MethodGet, Host: addr,
		Path: adminv1.PathClusterEntry, Query: []httpmsg.Field{{Key: "key", Value: key}}})
	if err != nil {
		return nil, false, err
	}
	switch resp.Status {
	case http.StatusOK:
		var entry adminv1.ClusterEntry
		err := json.NewDecoder(io.LimitReader(resp.Stream(), peekBodyLimit)).Decode(&entry)
		c.drain(resp)
		if err != nil {
			return nil, false, fmt.Errorf("cluster: decoding peek from %s: %w", addr, err)
		}
		return &entry, true, nil
	case http.StatusNotFound:
		c.drain(resp)
		return nil, false, nil
	default:
		c.drain(resp)
		return nil, false, fmt.Errorf("cluster: peek %s: unexpected status %d", addr, resp.Status)
	}
}

// drain discards the rest of a response body (bounded) and closes it so the
// pooled connection can be reused. Errors are counted: a rising drainErrors
// series means a peer is tearing connections mid-body.
func (c *Cluster) drain(resp *httpmsg.Response) {
	if err := resp.DrainAndClose(); err != nil {
		c.drainErrors.Add(1)
	}
}
