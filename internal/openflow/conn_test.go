package openflow

import (
	"bytes"
	"io"
	"net"
	"net/netip"
	"testing"

	"sdx/internal/policy"
	"sdx/internal/telemetry"
)

// memConn is a net.Conn over memory: Read serves data at most chunk bytes
// per call (every byte at once when chunk is 0) and counts the calls; Write
// records each call's bytes. Methods a Conn does not use are left nil.
type memConn struct {
	net.Conn
	data   []byte
	chunk  int
	reads  int
	writes [][]byte
}

func (c *memConn) Read(b []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(b), len(c.data))
	if c.chunk > 0 {
		n = min(n, c.chunk)
	}
	copy(b, c.data[:n])
	c.data = c.data[n:]
	c.reads++
	return n, nil
}

func (c *memConn) Write(b []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), b...))
	return len(b), nil
}

// testStream is a FLOW_MOD add, a strict delete, a PACKET_OUT and a
// barrier, each with its own xid, plus their concatenation.
func testStream() ([][]byte, []byte) {
	msgs := [][]byte{
		EncodeFlowMod(&FlowMod{Match: MatchFromPolicy(policy.MatchAll.Port(1).DstIP(netip.MustParsePrefix("10.0.0.0/8"))),
			Command: FlowModAdd, Priority: 9, Actions: []Action{{Type: ActionTypeSetDLDst, MAC: macY}, Output(2)}}, 1),
		EncodeFlowMod(&FlowMod{Match: MatchFromPolicy(policy.MatchAll.DstMAC(macX)), Command: FlowModDeleteStrict, Priority: 3}, 2),
		must(EncodePacketOut(&PacketOut{InPort: 1, Actions: []Action{Output(3)}, Data: []byte("frame")}, 3)),
		must(Encode(TypeBarrierRequest, 4, nil)),
	}
	return msgs, bytes.Join(msgs, nil)
}

// recvAll reads every message from c until EOF and checks each re-encodes
// to the bytes it was read from.
func recvAll(t *testing.T, c *Conn, want [][]byte) {
	t.Helper()
	for i, w := range want {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got := must(Encode(m.Type, m.XID, m.Body)); !bytes.Equal(got, w) {
			t.Fatalf("message %d: read %x, want %x", i, got, w)
		}
	}
	if m, err := c.Recv(); err != io.EOF {
		t.Fatalf("after the last message: %v, %v; want EOF", m, err)
	}
}

func TestRecvSeveralMessagesInOneRead(t *testing.T) {
	msgs, stream := testStream()
	mc := &memConn{data: stream}
	recvAll(t, NewConn(mc), msgs)
	// One read delivers the whole stream, one more sees EOF.
	if mc.reads != 1 {
		t.Errorf("%d reads of the transport for %d messages, want 1", mc.reads, len(msgs))
	}
}

func TestRecvMessageSplitAcrossReads(t *testing.T) {
	msgs, stream := testStream()
	for _, chunk := range []int{1, 3, 7, 8, 9, 50} {
		mc := &memConn{data: stream, chunk: chunk}
		recvAll(t, NewConn(mc), msgs)
	}
}

// TestRecvFailsAsReadMessage: a stream cut anywhere, a wrong version and a
// length shorter than the header fail Recv exactly as they fail
// ReadMessage: io.EOF only at a message boundary, io.ErrUnexpectedEOF
// inside a header or a body.
func TestRecvFailsAsReadMessage(t *testing.T) {
	msgs, _ := testStream()
	badVersion := must(Encode(TypeHello, 1, nil))
	badVersion[0] = 0x04
	badLength := must(Encode(TypeHello, 1, nil))
	badLength[2], badLength[3] = 0, 4
	inputs := [][]byte{badVersion, badLength}
	for n := 0; n < len(msgs[0]); n++ {
		inputs = append(inputs, msgs[0][:n])
	}
	for _, in := range inputs {
		_, want := ReadMessage(bytes.NewReader(in))
		_, got := NewConn(&memConn{data: in, chunk: 3}).Recv()
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("%x: Recv failed with %v, ReadMessage with %v", in, got, want)
		}
	}
}

// TestRecvAllocations: once the connection exists, receiving a message
// allocates its Message and its body and nothing else.
func TestRecvAllocations(t *testing.T) {
	msgs, stream := testStream()
	mc := &memConn{}
	c := NewConn(mc)
	allocs := testing.AllocsPerRun(100, func() {
		mc.data = stream
		for range msgs {
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if want := float64(2 * len(msgs)); allocs > want {
		t.Errorf("%.0f allocations to receive %d messages, want at most %.0f", allocs, len(msgs), want)
	}
}

// TestAppendMatchesEncode: the append forms write exactly the bytes of the
// single-message encoders, wherever in a buffer they start.
func TestAppendMatchesEncode(t *testing.T) {
	fm := &FlowMod{Match: MatchFromPolicy(policy.MatchAll.Port(4).DstPort(443)), Command: FlowModAdd, Priority: 77, Cookie: 5,
		Actions: []Action{Group([]uint16{1, 2, 3, 4, 5, 6, 7}), Output(1)}}
	prefix := []byte("xyz")
	if got, want := must(AppendFlowMod(prefix, fm, 42)), append(prefix, EncodeFlowMod(fm, 42)...); !bytes.Equal(got, want) {
		t.Errorf("AppendFlowMod:\n %x\nwant\n %x", got, want)
	}
	body := []byte{1, 2, 3}
	if got, want := must(AppendMessage(prefix, TypeEchoReply, 9, body)), append(prefix, must(Encode(TypeEchoReply, 9, body))...); !bytes.Equal(got, want) {
		t.Errorf("AppendMessage:\n %x\nwant\n %x", got, want)
	}
}

// TestSendBatchCountsEachMessage: a batch is one write of the same bytes,
// and leaves every per-type out-counter where sending each message alone
// leaves it.
func TestSendBatchCountsEachMessage(t *testing.T) {
	msgs, stream := testStream()
	alone, batched := &memConn{}, &memConn{}
	ma, mb := NewMetrics(telemetry.NewRegistry()), NewMetrics(telemetry.NewRegistry())
	ca, cb := NewConn(alone), NewConn(batched)
	ca.SetMetrics(ma)
	cb.SetMetrics(mb)
	for _, m := range msgs {
		if err := ca.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := cb.Send(stream); err != nil {
		t.Fatal(err)
	}
	if len(batched.writes) != 1 || !bytes.Equal(batched.writes[0], bytes.Join(alone.writes, nil)) {
		t.Fatalf("batched writes %x, want one write of %x", batched.writes, alone.writes)
	}
	for _, typ := range knownTypes {
		if a, b := ma.out[typ].Value(), mb.out[typ].Value(); a != b {
			t.Errorf("%v out: %d batched, %d sent alone", typ, b, a)
		}
	}
	if ma.out[TypeFlowMod].Value() != 2 || ma.out[TypeBarrierRequest].Value() != 1 {
		t.Errorf("sent alone: FLOW_MOD %d, BARRIER_REQUEST %d; want 2, 1",
			ma.out[TypeFlowMod].Value(), ma.out[TypeBarrierRequest].Value())
	}
	if ma.outOther.Value() != mb.outOther.Value() {
		t.Errorf("other out: %d batched, %d sent alone", mb.outOther.Value(), ma.outOther.Value())
	}
}

// FuzzReadMessageStream: any byte stream, delivered in reads of any size
// through a Conn's buffer, never panics the reader, and every message read
// re-encodes to exactly the bytes it occupied in the stream.
func FuzzReadMessageStream(f *testing.F) {
	_, stream := testStream()
	f.Add(stream, uint8(0))
	f.Add(stream, uint8(1))
	f.Add(stream[:len(stream)-3], uint8(5))
	f.Add([]byte{ProtocolVersion, byte(TypeHello), 0, 4, 0, 0, 0, 1}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		c := NewConn(&memConn{data: data, chunk: int(chunk)})
		off := 0
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			wire := must(Encode(m.Type, m.XID, m.Body))
			if off+len(wire) > len(data) || !bytes.Equal(wire, data[off:off+len(wire)]) {
				t.Fatalf("message at offset %d re-encodes to %x, not the stream's bytes", off, wire)
			}
			off += len(wire)
		}
	})
}
