package httpmsg

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type trackingBody struct {
	io.Reader
	closed  bool
	readErr error
}

func (t *trackingBody) Read(p []byte) (int, error) {
	if t.readErr != nil {
		return 0, t.readErr
	}
	return t.Reader.Read(p)
}

func (t *trackingBody) Close() error { t.closed = true; return nil }

func streamingResp(body string) (*Response, *trackingBody) {
	tb := &trackingBody{Reader: strings.NewReader(body)}
	r := &Response{Status: 200}
	r.SetStream(tb)
	return r, tb
}

func TestStreamingLifecycle(t *testing.T) {
	r, tb := streamingResp("hello world")
	if !r.Streaming() {
		t.Fatal("want streaming")
	}
	var fired int
	r.OnBodyClose(func() { fired++ })
	if err := r.Buffer(0); err != nil {
		t.Fatal(err)
	}
	if r.Streaming() || !tb.closed || fired != 1 {
		t.Fatalf("after Buffer: streaming=%v closed=%v fired=%d", r.Streaming(), tb.closed, fired)
	}
	if string(r.Body) != "hello world" || !r.BodyComplete() {
		t.Fatalf("body %q complete=%v", r.Body, r.BodyComplete())
	}
	// Callbacks registered after close fire immediately.
	r.OnBodyClose(func() { fired++ })
	if fired != 2 {
		t.Fatalf("late OnBodyClose fired=%d", fired)
	}
	if err := r.CloseBody(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestBufferCapTruncates(t *testing.T) {
	r, tb := streamingResp(strings.Repeat("x", 100))
	err := r.Buffer(10)
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("err = %v, want ErrBodyTooLarge", err)
	}
	if !tb.closed || !r.trunc || r.BodyComplete() || len(r.Body) != 0 {
		t.Fatalf("closed=%v trunc=%v complete=%v len=%d", tb.closed, r.trunc, r.BodyComplete(), len(r.Body))
	}
	if _, err := r.JSON(); err == nil {
		t.Fatal("JSON on truncated body must error")
	}
}

func TestJSONOnStreamingErrors(t *testing.T) {
	r, _ := streamingResp(`{"a":1}`)
	if _, err := r.JSON(); err == nil {
		t.Fatal("JSON on streaming response must error")
	}
}

func TestResponseDrainAndClose(t *testing.T) {
	r, tb := streamingResp("leftover bytes")
	var fired bool
	r.OnBodyClose(func() { fired = true })
	if err := r.DrainAndClose(); err != nil {
		t.Fatal(err)
	}
	if !tb.closed || !fired || r.Streaming() {
		t.Fatalf("closed=%v fired=%v streaming=%v", tb.closed, fired, r.Streaming())
	}
}

func TestDrainAndCloseReportsReadError(t *testing.T) {
	boom := errors.New("conn reset")
	r, tb := streamingResp("x")
	tb.readErr = boom
	if err := r.DrainAndClose(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want read error surfaced", err)
	}
	if !tb.closed {
		t.Fatal("body not closed after drain error")
	}
	if err := (&Response{Status: 200}).DrainAndClose(); err != nil {
		t.Fatalf("no body: %v", err)
	}
}

func TestStreamingWriteTo(t *testing.T) {
	r, tb := streamingResp("streamed body")
	r.Header = append(r.Header, Field{Key: "X-Test", Value: "1"})
	rec := httptest.NewRecorder()
	if err := r.WriteTo(rec); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != "streamed body" || rec.Header().Get("X-Test") != "1" {
		t.Fatalf("wrote %q", rec.Body.String())
	}
	if !tb.closed {
		t.Fatal("WriteTo must close the stream")
	}
}

func TestFromHTTPResponseStreaming(t *testing.T) {
	hr := &http.Response{
		StatusCode: 206,
		Header:     http.Header{"Content-Range": {"bytes 0-1/2"}},
		Body:       io.NopCloser(strings.NewReader("ab")),
	}
	r := FromHTTPResponseStreaming(hr)
	if !r.Streaming() || r.Status != 206 {
		t.Fatalf("streaming=%v status=%d", r.Streaming(), r.Status)
	}
	if v, _ := r.GetHeader("Content-Range"); v != "bytes 0-1/2" {
		t.Fatalf("header %q", v)
	}
	if err := r.Buffer(0); err != nil || string(r.Body) != "ab" {
		t.Fatalf("buffer: %v %q", err, r.Body)
	}
}

func TestFromHTTPLimited(t *testing.T) {
	mk := func(n int) *http.Request {
		req := httptest.NewRequest("POST", "http://app.example/submit",
			bytes.NewReader(bytes.Repeat([]byte("z"), n)))
		req.Header.Set("Content-Type", "application/octet-stream")
		return req
	}
	if _, err := FromHTTPLimited(mk(100), 64); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("over-limit err = %v, want ErrBodyTooLarge", err)
	}
	r, err := FromHTTPLimited(mk(64), 64)
	if err != nil {
		t.Fatalf("at-limit: %v", err)
	}
	if len(r.BodyRaw) != 64 {
		t.Fatalf("body len %d", len(r.BodyRaw))
	}
	if _, err := FromHTTPLimited(mk(100), 0); err != nil {
		t.Fatalf("unlimited: %v", err)
	}
}

func TestRangeHeadersExcludedFromKey(t *testing.T) {
	full := &Request{Method: "GET", Host: "app.example", Path: "/media/1"}
	ranged := &Request{Method: "GET", Host: "app.example", Path: "/media/1",
		Header: []Field{{Key: "Range", Value: "bytes=0-99"}, {Key: "If-Range", Value: `"v1"`}}}
	if full.CanonicalKey() != ranged.CanonicalKey() {
		t.Fatal("ranged request must share the full request's canonical key")
	}
	other := &Request{Method: "GET", Host: "app.example", Path: "/media/1",
		Header: []Field{{Key: "Authorization", Value: "Bearer t"}}}
	if full.CanonicalKey() == other.CanonicalKey() {
		t.Fatal("real application headers must still differentiate keys")
	}
}
