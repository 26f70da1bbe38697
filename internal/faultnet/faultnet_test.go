package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes everything back until the
// listener closes.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c) //nolint:errcheck
				c.Close()
			}()
		}
	}()
	return ln
}

func TestProxyPassthrough(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	px, err := NewProxy("127.0.0.1:0", ln.Addr().String(), NewProfile())
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	c, err := net.Dial("tcp", px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("hello through the proxy")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q != %q", got, msg)
	}
	// The proxy charges a write once it returns, which can be after the
	// echo has already reached the client: wait for the charge to land.
	want := int64(2 * len(msg))
	deadline := time.Now().Add(5 * time.Second)
	for px.Profile().Transferred() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tr := px.Profile().Transferred(); tr < want {
		t.Fatalf("transferred %d, want >= %d (both directions)", tr, want)
	}
}

func TestResetAfterBytes(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p := NewProfile()
	px, err := NewProxy("127.0.0.1:0", ln.Addr().String(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	c, err := net.Dial("tcp", px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p.ResetAfterBytes(64)
	buf := make([]byte, 32)
	var total int
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Write(buf); err != nil {
			return // reset observed on write: pass
		}
		c.SetReadDeadline(time.Now().Add(200 * time.Millisecond)) //nolint:errcheck
		n, err := c.Read(buf)
		total += n
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return // reset observed on read: pass
		}
	}
	t.Fatalf("connection survived %d bytes past a 64-byte reset budget", total)
}

func TestBlackholeStallsAndFlapRecovers(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p := NewProfile()
	px, err := NewProxy("127.0.0.1:0", ln.Addr().String(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	c, err := net.Dial("tcp", px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Healthy round trip first.
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}

	// Partition: new dials are refused promptly.
	p.SetBlackhole(true)
	if c2, err := net.Dial("tcp", px.Addr()); err == nil {
		one := make([]byte, 1)
		c2.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		if _, rerr := c2.Read(one); rerr == nil {
			t.Fatal("read succeeded through a blackholed proxy")
		}
		c2.Close()
	}

	// Lift the partition; the link heals for fresh connections.
	p.SetBlackhole(false)
	c3, err := net.Dial("tcp", px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c3, got); err != nil {
		t.Fatal(err)
	}
}

func TestBlackholedConnHonorsDeadline(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p := NewProfile()
	up, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := p.Wrap(up)
	defer c.Close()
	p.SetBlackhole(true)
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck
	one := make([]byte, 1)
	_, rerr := c.Read(one)
	var ne net.Error
	if !errors.As(rerr, &ne) || !ne.Timeout() {
		t.Fatalf("want timeout net.Error from blackholed read, got %v", rerr)
	}
}

func TestResetAllKillsLiveConns(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p := NewProfile()
	px, err := NewProxy("127.0.0.1:0", ln.Addr().String(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	c, err := net.Dial("tcp", px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if _, err := io.ReadFull(c, one); err != nil {
		t.Fatal(err)
	}
	p.ResetAll()
	c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := c.Read(one); err == nil {
		t.Fatal("read succeeded after ResetAll")
	}
}

func TestLatencyAddsDelay(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p := NewProfile()
	px, err := NewProxy("127.0.0.1:0", ln.Addr().String(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	p.SetLatency(30 * time.Millisecond)
	c, err := net.Dial("tcp", px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 30*time.Millisecond {
		t.Fatalf("round trip %v under a 30ms injected latency", rtt)
	}
}
