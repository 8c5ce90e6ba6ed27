package openflow

import (
	"encoding/binary"
	"errors"
	"io"

	"sdx/internal/telemetry"
)

// Metrics holds the control-channel instruments shared by every Conn that
// has them attached: per-type message counters and error counters. Counters
// for the known message types are pre-resolved into arrays so the Send/Recv
// hot paths (PACKET_IN floods) index instead of locking a map. A nil
// *Metrics is a no-op.
type Metrics struct {
	in  [256]*telemetry.Counter
	out [256]*telemetry.Counter
	// inOther/outOther absorb unknown type bytes so they are still counted.
	inOther  *telemetry.Counter
	outOther *telemetry.Counter
	// DecodeErrors counts failed message reads (framing or version errors;
	// clean EOFs are not errors). SendErrors counts failed writes.
	DecodeErrors *telemetry.Counter
	SendErrors   *telemetry.Counter
}

// knownTypes lists the message types that get their own labeled series.
var knownTypes = []MsgType{
	TypeHello, TypeError, TypeEchoRequest, TypeEchoReply,
	TypeFeaturesRequest, TypeFeaturesReply, TypePacketIn, TypePacketOut,
	TypeFlowMod, TypeStatsRequest, TypeStatsReply,
	TypeBarrierRequest, TypeBarrierReply,
}

// NewMetrics registers the OpenFlow connection metrics with reg and returns
// the shared instrument set. A nil registry returns nil, the no-op mode.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{}
	in := reg.CounterVec("sdx_openflow_messages_in_total",
		"OpenFlow messages received, by type.", "type")
	out := reg.CounterVec("sdx_openflow_messages_out_total",
		"OpenFlow messages sent, by type.", "type")
	for _, t := range knownTypes {
		m.in[t] = in.With(t.String())
		m.out[t] = out.With(t.String())
	}
	m.inOther = in.With("other")
	m.outOther = out.With("other")
	m.DecodeErrors = reg.Counter("sdx_openflow_decode_errors_total",
		"OpenFlow messages that failed to decode.")
	m.SendErrors = reg.Counter("sdx_openflow_send_errors_total",
		"OpenFlow message writes that failed.")
	return m
}

func (m *Metrics) msgIn(t MsgType) {
	if m == nil {
		return
	}
	if c := m.in[t]; c != nil {
		c.Inc()
		return
	}
	m.inOther.Inc()
}

func (m *Metrics) msgOut(t MsgType) {
	if m == nil {
		return
	}
	if c := m.out[t]; c != nil {
		c.Inc()
		return
	}
	m.outOther.Inc()
}

// sent counts each message framed in b, a buffer that was written whole.
// A header whose length cannot frame the next message ends the walk, with
// that message counted: a single malformed write still counts once.
func (m *Metrics) sent(b []byte) {
	if m == nil {
		return
	}
	for len(b) >= 2 {
		m.msgOut(MsgType(b[1]))
		if len(b) < headerLen {
			return
		}
		n := int(binary.BigEndian.Uint16(b[2:4]))
		if n < headerLen || n > len(b) {
			return
		}
		b = b[n:]
	}
}

func (m *Metrics) decodeError(err error) {
	if m == nil || err == nil {
		return
	}
	// A clean shutdown surfaces as EOF on the next read; that is session
	// lifecycle, not a decode failure.
	if errors.Is(err, io.EOF) {
		return
	}
	m.DecodeErrors.Inc()
}

func (m *Metrics) sendError() {
	if m == nil {
		return
	}
	m.SendErrors.Inc()
}
