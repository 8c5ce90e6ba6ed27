package openflow

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Conn is a framed OpenFlow connection with serialized writes and
// monotonically increasing transaction ids. It wraps either end of the
// channel: the controller and the software switch both use it.
type Conn struct {
	conn    net.Conn
	r       *bufio.Reader
	writeMu sync.Mutex
	xid     atomic.Uint32
	metrics *Metrics
}

// readBufSize is the receive buffer of a Conn. A table push arrives as one
// large write; through the buffer it is read up to 64 KiB (about 700
// FLOW_MODs) per syscall instead of two syscalls per message.
const readBufSize = 64 << 10

// NewConn wraps an established transport connection. Only Recv may read
// from c afterwards: the Conn buffers what it reads.
func NewConn(c net.Conn) *Conn {
	return &Conn{conn: c, r: bufio.NewReaderSize(c, readBufSize)}
}

// SetMetrics attaches per-type message and error counters to the
// connection. Call it before the connection is served; a nil Metrics (the
// no-op mode) is the default.
func (c *Conn) SetMetrics(m *Metrics) { c.metrics = m }

// NextXID returns a fresh transaction id.
func (c *Conn) NextXID() uint32 { return c.xid.Add(1) }

// Send writes b, one pre-encoded message or several back to back (a table
// push built with AppendFlowMod and AppendMessage), in a single write to the
// transport. Once the write succeeds every message in b is counted by type,
// exactly as if each had been sent alone.
func (c *Conn) Send(b []byte) error {
	c.writeMu.Lock()
	_, err := c.conn.Write(b)
	c.writeMu.Unlock()
	if err != nil {
		c.metrics.sendError()
		return err
	}
	c.metrics.sent(b)
	return nil
}

// Recv reads one message through the connection's read buffer. The header
// is parsed where it lies in the buffer, so a message costs two allocations:
// its Message and its body.
func (c *Conn) Recv() (*Message, error) {
	m, err := c.read()
	if err != nil {
		c.metrics.decodeError(err)
		return m, err
	}
	c.metrics.msgIn(m.Type)
	return m, nil
}

// read is ReadMessage over the read buffer, failing as it does: io.EOF at
// a clean end of stream, io.ErrUnexpectedEOF inside a message.
func (c *Conn) read() (*Message, error) {
	hdr, err := c.r.Peek(headerLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	h, n, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	c.r.Discard(headerLen)
	return readBody(c.r, h, n)
}

// Close tears down the transport.
func (c *Conn) Close() error { return c.conn.Close() }

// HandshakeController performs the controller side of session setup: HELLO
// exchange followed by FEATURES_REQUEST/REPLY. It returns the switch's
// feature description.
func (c *Conn) HandshakeController() (*FeaturesReply, error) {
	if err := c.Send(Encode(TypeHello, c.NextXID(), nil)); err != nil {
		return nil, fmt.Errorf("openflow: sending HELLO: %w", err)
	}
	msg, err := c.Recv()
	if err != nil {
		return nil, fmt.Errorf("openflow: reading HELLO: %w", err)
	}
	if msg.Type != TypeHello {
		return nil, fmt.Errorf("openflow: expected HELLO, got %v", msg.Type)
	}
	if err := c.Send(Encode(TypeFeaturesRequest, c.NextXID(), nil)); err != nil {
		return nil, fmt.Errorf("openflow: sending FEATURES_REQUEST: %w", err)
	}
	msg, err = c.Recv()
	if err != nil {
		return nil, fmt.Errorf("openflow: reading FEATURES_REPLY: %w", err)
	}
	return msg.DecodeFeaturesReply()
}

// HandshakeSwitch performs the switch side of session setup, answering the
// controller's HELLO and FEATURES_REQUEST with the given features.
func (c *Conn) HandshakeSwitch(features FeaturesReply) error {
	msg, err := c.Recv()
	if err != nil {
		return fmt.Errorf("openflow: reading HELLO: %w", err)
	}
	if msg.Type != TypeHello {
		return fmt.Errorf("openflow: expected HELLO, got %v", msg.Type)
	}
	if err := c.Send(Encode(TypeHello, c.NextXID(), nil)); err != nil {
		return fmt.Errorf("openflow: sending HELLO: %w", err)
	}
	msg, err = c.Recv()
	if err != nil {
		return fmt.Errorf("openflow: reading FEATURES_REQUEST: %w", err)
	}
	if msg.Type != TypeFeaturesRequest {
		return fmt.Errorf("openflow: expected FEATURES_REQUEST, got %v", msg.Type)
	}
	return c.Send(EncodeFeaturesReply(&features, msg.XID))
}

// SendFlowMod encodes and sends a flow modification.
func (c *Conn) SendFlowMod(fm *FlowMod) error {
	return c.Send(EncodeFlowMod(fm, c.NextXID()))
}

// SendPacketOut encodes and sends a packet injection.
func (c *Conn) SendPacketOut(po *PacketOut) error {
	return c.Send(EncodePacketOut(po, c.NextXID()))
}

// SendBarrier sends a BARRIER_REQUEST and returns its transaction id; the
// caller matches the eventual BARRIER_REPLY by xid.
func (c *Conn) SendBarrier() (uint32, error) {
	xid := c.NextXID()
	return xid, c.Send(Encode(TypeBarrierRequest, xid, nil))
}
