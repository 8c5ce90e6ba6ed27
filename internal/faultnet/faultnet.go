// Package faultnet wraps net.Conn with injectable transport faults —
// delays, blackholes, and severs triggered manually or after a byte or
// operation budget — so the control-plane resilience tests can kill and
// restore the OpenFlow and BGP channels at precise points mid-stream.
// The wrapper is race-clean: every knob may be turned from a goroutine
// other than the one reading or writing.
package faultnet

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrSevered is returned by Read and Write once the connection has been
// cut, whether manually or by an exhausted budget.
var ErrSevered = errors.New("faultnet: connection severed")

// Conn is a net.Conn with fault injection. The zero budgets mean
// "unlimited"; faults are armed with the Sever*/SetDelay/Blackhole
// methods. All methods are safe for concurrent use.
type Conn struct {
	inner net.Conn

	mu          sync.Mutex
	readBudget  int64 // bytes readable before severing; <0 = unlimited
	writeBudget int64 // bytes writable before severing; <0 = unlimited
	opBudget    int64 // Read/Write calls before severing; <0 = unlimited
	delay       time.Duration
	blackhole   bool
	severed     bool
	cut         chan struct{} // closed on sever; unblocks blackholed reads
}

// Wrap returns c with every fault disarmed: reads and writes pass through
// until a budget or sever is set.
func Wrap(c net.Conn) *Conn {
	return &Conn{
		inner:       c,
		readBudget:  -1,
		writeBudget: -1,
		opBudget:    -1,
		cut:         make(chan struct{}),
	}
}

// SeverAfterBytes arms byte budgets: the connection is cut once read more
// bytes have been delivered or write more accepted (negative = unlimited
// in that direction). The op that crosses the budget completes up to the
// boundary, then fails — mid-message cuts are the point.
func (c *Conn) SeverAfterBytes(read, write int64) {
	c.mu.Lock()
	c.readBudget, c.writeBudget = read, write
	c.mu.Unlock()
}

// SeverAfterOps cuts the connection after n more Read/Write calls. Every
// Write in this repo carries whole messages (one BGP message, one OpenFlow
// message, or one OpenFlow table push with its barrier), so an op budget
// spent on writes severs at a message boundary.
func (c *Conn) SeverAfterOps(n int64) {
	c.mu.Lock()
	c.opBudget = n
	c.mu.Unlock()
}

// SetDelay sleeps every subsequent Read and Write by d before touching the
// transport.
func (c *Conn) SetDelay(d time.Duration) {
	c.mu.Lock()
	c.delay = d
	c.mu.Unlock()
}

// Blackhole makes the connection swallow traffic without closing: writes
// claim success but reach nothing, reads block until the connection is
// severed. This is the failure keepalives and hold timers exist for.
func (c *Conn) Blackhole() {
	c.mu.Lock()
	c.blackhole = true
	c.mu.Unlock()
}

// Sever cuts the connection now: the underlying transport is closed, any
// blackholed reader is released, and every subsequent op fails.
func (c *Conn) Sever() {
	c.mu.Lock()
	already := c.severed
	c.severed = true
	c.mu.Unlock()
	if already {
		return
	}
	close(c.cut)
	c.inner.Close()
}

// Severed reports whether the connection has been cut.
func (c *Conn) Severed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.severed
}

// admit charges one op plus n bytes of budget against the given direction,
// returning how many bytes may pass and whether the connection must sever
// after they do. Callers hold no lock.
func (c *Conn) admit(budget *int64, n int) (allowed int, severAfter bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.severed {
		return 0, false, ErrSevered
	}
	if c.opBudget == 0 {
		return 0, true, ErrSevered
	}
	if c.opBudget > 0 {
		c.opBudget--
		if c.opBudget == 0 {
			severAfter = true
		}
	}
	allowed = n
	if *budget >= 0 {
		if *budget == 0 {
			return 0, true, ErrSevered
		}
		if int64(allowed) >= *budget {
			allowed = int(*budget)
			severAfter = true
		}
		*budget -= int64(allowed)
	}
	return allowed, severAfter, nil
}

func (c *Conn) pause() (blackhole bool) {
	c.mu.Lock()
	d, bh := c.delay, c.blackhole
	c.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	return bh
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.pause() {
		<-c.cut
		return 0, ErrSevered
	}
	allowed, severAfter, err := c.admit(&c.readBudget, len(p))
	if err != nil {
		c.Sever()
		return 0, err
	}
	n, err := c.inner.Read(p[:allowed])
	if severAfter {
		c.Sever()
		if err == nil {
			err = ErrSevered
		}
	}
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.pause() {
		return len(p), nil // swallowed
	}
	allowed, severAfter, err := c.admit(&c.writeBudget, len(p))
	if err != nil {
		c.Sever()
		return 0, err
	}
	n, err := c.inner.Write(p[:allowed])
	if severAfter {
		c.Sever()
		if err == nil {
			err = ErrSevered
		}
	}
	return n, err
}

func (c *Conn) Close() error {
	c.mu.Lock()
	already := c.severed
	c.severed = true
	c.mu.Unlock()
	if !already {
		close(c.cut)
	}
	return c.inner.Close()
}

func (c *Conn) LocalAddr() net.Addr                { return c.inner.LocalAddr() }
func (c *Conn) RemoteAddr() net.Addr               { return c.inner.RemoteAddr() }
func (c *Conn) SetDeadline(t time.Time) error      { return c.inner.SetDeadline(t) }
func (c *Conn) SetReadDeadline(t time.Time) error  { return c.inner.SetReadDeadline(t) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// Dialer dials TCP connections wrapped in fault-injecting Conns and keeps
// hold of every one it has handed out, so a test can cut the live channel
// of a component that redials internally (the switch's controller loop, a
// speaker's persistent neighbor) without plumbing the conn back out.
type Dialer struct {
	// Arm, when set, is applied to each new connection before it is
	// returned — the place to pre-set budgets or delays.
	Arm func(*Conn)

	mu    sync.Mutex
	conns []*Conn
}

// Dial connects to addr and returns the wrapped connection.
func (d *Dialer) Dial(addr string) (net.Conn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := Wrap(raw)
	if d.Arm != nil {
		d.Arm(c)
	}
	d.mu.Lock()
	d.conns = append(d.conns, c)
	d.mu.Unlock()
	return c, nil
}

// Last returns the most recently dialed connection, or nil.
func (d *Dialer) Last() *Conn {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.conns) == 0 {
		return nil
	}
	return d.conns[len(d.conns)-1]
}

// Dials returns how many connections the dialer has handed out.
func (d *Dialer) Dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

// SeverAll cuts every connection the dialer has handed out.
func (d *Dialer) SeverAll() {
	d.mu.Lock()
	conns := append([]*Conn(nil), d.conns...)
	d.mu.Unlock()
	for _, c := range conns {
		c.Sever()
	}
}
