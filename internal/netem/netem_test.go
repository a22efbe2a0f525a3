package netem

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts one connection and echoes everything back.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func TestSerializationDelay(t *testing.T) {
	l := Link{Bandwidth: 8_000} // 1000 bytes/s
	if got := l.serializationDelay(1000); got != time.Second {
		t.Fatalf("serializationDelay = %v, want 1s", got)
	}
	if got := l.serializationDelay(0); got != 0 {
		t.Fatalf("zero bytes delay = %v", got)
	}
	if got := (Link{}).serializationDelay(1 << 20); got != 0 {
		t.Fatalf("unlimited bandwidth delay = %v", got)
	}
}

func TestTransferTime(t *testing.T) {
	l := Link{RTT: 100 * time.Millisecond, Bandwidth: 8_000_000} // 1 MB/s
	got := l.TransferTime(1_000_000)
	want := 50*time.Millisecond + time.Second
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
}

func TestMobile4G(t *testing.T) {
	l := Mobile4G()
	if l.RTT != 55*time.Millisecond || l.Bandwidth != 25_000_000 {
		t.Fatalf("Mobile4G = %+v", l)
	}
}

func TestRTTCharged(t *testing.T) {
	ln := echoServer(t)
	const rtt = 60 * time.Millisecond
	d := Dialer{Link: Link{RTT: rtt}}
	conn, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()

	msg := []byte("ping")
	buf := make([]byte, len(msg))
	start := time.Now()
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	elapsed := time.Since(start)
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo = %q", buf)
	}
	if elapsed < rtt {
		t.Fatalf("exchange took %v, want >= %v", elapsed, rtt)
	}
	if elapsed > rtt*5 {
		t.Fatalf("exchange took %v, suspiciously long for RTT %v", elapsed, rtt)
	}
}

func TestBandwidthPacing(t *testing.T) {
	ln := echoServer(t)
	// 800 kbit/s = 100 KB/s; 20 KB payload should take >= ~200 ms one way
	// (and the echo pays it again inbound: >= ~400 ms total).
	d := Dialer{Link: Link{Bandwidth: 800_000}}
	conn, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()

	payload := bytes.Repeat([]byte("x"), 20_000)
	start := time.Now()
	if _, err := conn.Write(payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	elapsed := time.Since(start)
	if min := 380 * time.Millisecond; elapsed < min {
		t.Fatalf("20KB echo over 100KB/s link took %v, want >= %v", elapsed, min)
	}
}

func TestUnshapedPassThrough(t *testing.T) {
	ln := echoServer(t)
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	wrapped := WrapConn(c, Link{})
	if wrapped != c {
		t.Fatal("zero link should not wrap")
	}
	c.Close()
}

func TestListenerShaping(t *testing.T) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	const rtt = 50 * time.Millisecond
	ln := &Listener{Listener: base, Link: Link{RTT: rtt}}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	defer ln.Close()

	c, err := net.Dial("tcp", base.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	c.Write([]byte("hi"))
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if elapsed := time.Since(start); elapsed < rtt {
		t.Fatalf("server-side shaping: exchange took %v, want >= %v", elapsed, rtt)
	}
}

func TestCloseUnblocksRead(t *testing.T) {
	ln := echoServer(t)
	d := Dialer{Link: Link{RTT: 10 * time.Millisecond}}
	conn, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := conn.Read(buf)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	conn.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Read returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Read did not unblock after Close")
	}
}

func TestPeerCloseEOF(t *testing.T) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer base.Close()
	go func() {
		c, err := base.Accept()
		if err != nil {
			return
		}
		c.Write([]byte("bye"))
		c.Close()
	}()
	d := Dialer{Link: Link{RTT: 10 * time.Millisecond}}
	conn, err := d.Dial("tcp", base.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	data, err := io.ReadAll(conn)
	if string(data) != "bye" {
		t.Fatalf("ReadAll = %q, %v", data, err)
	}
}

func TestOrderingPreserved(t *testing.T) {
	ln := echoServer(t)
	d := Dialer{Link: Link{RTT: 5 * time.Millisecond, Bandwidth: 50_000_000}}
	conn, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	var want bytes.Buffer
	for i := 0; i < 50; i++ {
		chunk := bytes.Repeat([]byte{byte('a' + i%26)}, 100)
		want.Write(chunk)
		if _, err := conn.Write(chunk); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	got := make([]byte, want.Len())
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("byte stream reordered or corrupted")
	}
}

// TestDeliveredChunksReleased: once a shaped connection has delivered a
// chunk, its queue no longer references it. The whole 1 MiB response is
// queued before the first read, so every chunk passes through one backing
// array; after reading to EOF no slot of that array still holds data, and
// the queue has let the array go.
func TestDeliveredChunksReleased(t *testing.T) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer base.Close()
	const size = 1 << 20
	go func() {
		c, err := base.Accept()
		if err != nil {
			return
		}
		c.Write(bytes.Repeat([]byte{'x'}, size))
		c.Close()
	}()
	d := Dialer{Link: Link{RTT: 2 * time.Millisecond}}
	conn, err := d.Dial("tcp", base.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	q := conn.(*shapedConn).inbox
	<-q.closed // the read loop has queued every chunk and seen EOF
	q.mu.Lock()
	queued := q.chunks
	q.mu.Unlock()
	if len(queued) < 2 {
		t.Fatalf("%d chunks queued, want the response split over several", len(queued))
	}
	data, err := io.ReadAll(conn)
	if len(data) != size || err != nil {
		t.Fatalf("ReadAll = %d bytes, %v", len(data), err)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, c := range queued {
		if c.data != nil {
			t.Fatalf("slot %d of %d still holds %d delivered bytes", i, len(queued), len(c.data))
		}
	}
	if q.chunks != nil {
		t.Fatalf("drained queue keeps a backing array of cap %d", cap(q.chunks))
	}
}
