// Package faultnet wraps net connections and TCP proxies with
// scriptable fault injection — added latency, connection reset after N
// bytes, and blackhole partitions — so the mesh's recovery paths
// (liveness timeouts, session resume, retry/backoff) can be exercised
// deterministically in tests without a real failing network.
//
// All knobs live on a Profile shared by every connection wrapped with
// it and may be flipped concurrently while traffic flows. The typical
// chaos-test shape places a Proxy between a consumer and its staging
// hub, runs load, and scripts the profile mid-stream:
//
//	p := faultnet.NewProfile()
//	px, _ := faultnet.NewProxy("127.0.0.1:0", hubAddr, p)
//	// ... point the consumer at px.Addr(), start streaming ...
//	p.ResetAll()              // kill every in-flight connection (RST)
//	p.SetBlackhole(true)      // partition: dials refused, traffic stalls
//	p.ResetAfterBytes(1 << 20) // arm a mid-frame cut
package faultnet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Profile is the live fault script. The zero knobs inject nothing; a
// Profile with no faults armed forwards traffic unchanged (modulo the
// copy through the wrapper).
type Profile struct {
	latencyNs  atomic.Int64 // added once per Write call
	resetAfter atomic.Int64 // armed byte budget before a hard reset, 0 = never
	moved      atomic.Int64 // bytes moved since the budget was armed
	blackhole  atomic.Bool

	mu    sync.Mutex
	conns map[*Conn]struct{}
}

// NewProfile returns a profile with no faults armed.
func NewProfile() *Profile {
	return &Profile{conns: make(map[*Conn]struct{})}
}

// SetLatency adds d of one-way delay to every Write through wrapped
// connections (0 clears it).
func (p *Profile) SetLatency(d time.Duration) { p.latencyNs.Store(int64(d)) }

// ResetAfterBytes arms a hard reset once n more bytes (both directions
// combined, across every wrapped connection) have moved: the
// connection that crosses the budget is reset, simulating a mid-frame
// link cut. n <= 0 disarms.
func (p *Profile) ResetAfterBytes(n int64) {
	p.moved.Store(0)
	p.resetAfter.Store(n)
}

// Transferred reports bytes moved since ResetAfterBytes last armed
// (or since the profile was created).
func (p *Profile) Transferred() int64 { return p.moved.Load() }

// SetBlackhole partitions the link: wrapped reads and writes stall
// without erroring, and proxies refuse new connections, until the
// partition lifts. Data already inside a kernel buffer still drains.
func (p *Profile) SetBlackhole(v bool) { p.blackhole.Store(v) }

// ResetAll hard-resets every currently wrapped connection (RST rather
// than FIN where the transport allows), simulating a peer killed
// mid-conversation.
func (p *Profile) ResetAll() {
	p.mu.Lock()
	conns := make([]*Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.hardReset()
	}
}

// account charges n moved bytes against the armed reset budget and
// trips the reset on the crossing connection.
func (p *Profile) account(c *Conn, n int) {
	budget := p.resetAfter.Load()
	total := p.moved.Add(int64(n))
	if budget > 0 && total >= budget && p.resetAfter.CompareAndSwap(budget, 0) {
		c.hardReset()
	}
}

// timeoutError satisfies net.Error with Timeout()=true — what stall
// returns when a deadline expires inside a blackhole, so callers
// polling under read deadlines (liveness loops) behave identically on
// a partitioned wrapped connection and a silent real one.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultnet: i/o timeout (blackholed)" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// Conn is one fault-injected connection. The zero-fault path is a
// plain passthrough.
type Conn struct {
	net.Conn
	p      *Profile
	closed atomic.Bool

	dmu       sync.Mutex
	rDeadline time.Time
	wDeadline time.Time
}

// Wrap registers c under the profile and returns the fault-injected
// connection.
func (p *Profile) Wrap(c net.Conn) *Conn {
	fc := &Conn{Conn: c, p: p}
	p.mu.Lock()
	p.conns[fc] = struct{}{}
	p.mu.Unlock()
	return fc
}

func (c *Conn) deadline(read bool) time.Time {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if read {
		return c.rDeadline
	}
	return c.wDeadline
}

// stall blocks while the profile is blackholed, honoring the
// direction's deadline and the connection's closure.
func (c *Conn) stall(read bool) error {
	for c.p.blackhole.Load() {
		if c.closed.Load() {
			return net.ErrClosed
		}
		if d := c.deadline(read); !d.IsZero() && time.Now().After(d) {
			return timeoutError{}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (c *Conn) Read(b []byte) (int, error) {
	if err := c.stall(true); err != nil {
		return 0, err
	}
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.p.account(c, n)
	}
	return n, err
}

func (c *Conn) Write(b []byte) (int, error) {
	if err := c.stall(false); err != nil {
		return 0, err
	}
	if d := c.p.latencyNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	n, err := c.Conn.Write(b)
	if n > 0 {
		c.p.account(c, n)
	}
	return n, err
}

func (c *Conn) SetDeadline(t time.Time) error {
	c.dmu.Lock()
	c.rDeadline, c.wDeadline = t, t
	c.dmu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *Conn) SetReadDeadline(t time.Time) error {
	c.dmu.Lock()
	c.rDeadline = t
	c.dmu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.dmu.Lock()
	c.wDeadline = t
	c.dmu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *Conn) Close() error {
	c.closed.Store(true)
	c.p.mu.Lock()
	delete(c.p.conns, c)
	c.p.mu.Unlock()
	return c.Conn.Close()
}

// hardReset tears the connection down abruptly: linger zero (RST on
// close) when the underlying transport is TCP, then close.
func (c *Conn) hardReset() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0) //nolint:errcheck // best effort
	}
	c.Close() //nolint:errcheck
}

// Proxy is a fault-injected TCP forwarder: consumers dial the proxy
// instead of the real producer, and every byte crosses the profile's
// fault pipeline exactly once (the client side is wrapped; the
// upstream leg is a plain passthrough).
type Proxy struct {
	ln     net.Listener
	p      *Profile
	target string
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewProxy listens on listen (use "127.0.0.1:0" for ephemeral) and
// forwards each accepted connection to target under the profile.
func NewProxy(listen, target string, p *Profile) (*Proxy, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen: %w", err)
	}
	x := &Proxy{ln: ln, p: p, target: target}
	x.wg.Add(1)
	go x.serve()
	return x, nil
}

// Addr reports the proxy's dialable address.
func (x *Proxy) Addr() string { return x.ln.Addr().String() }

// Profile returns the proxy's fault script.
func (x *Proxy) Profile() *Profile { return x.p }

func (x *Proxy) serve() {
	defer x.wg.Done()
	for {
		c, err := x.ln.Accept()
		if err != nil {
			return
		}
		if x.p.blackhole.Load() {
			c.Close() //nolint:errcheck // partition: refuse the dial
			continue
		}
		x.wg.Add(1)
		go x.forward(c)
	}
}

func (x *Proxy) forward(client net.Conn) {
	defer x.wg.Done()
	up, err := net.Dial("tcp", x.target)
	if err != nil {
		client.Close() //nolint:errcheck
		return
	}
	fc := x.p.Wrap(client)
	var once sync.Once
	closeBoth := func() {
		fc.Close() //nolint:errcheck
		up.Close() //nolint:errcheck
	}
	x.wg.Add(1)
	go func() {
		defer x.wg.Done()
		io.Copy(up, fc) //nolint:errcheck // either side ending tears the pair down
		once.Do(closeBoth)
	}()
	io.Copy(fc, up) //nolint:errcheck
	once.Do(closeBoth)
}

// Close stops accepting and tears down every in-flight connection.
func (x *Proxy) Close() error {
	if !x.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := x.ln.Close()
	x.p.ResetAll()
	x.wg.Wait()
	return err
}
