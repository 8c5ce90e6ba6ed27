// Package openflow implements the subset of OpenFlow 1.0 that connects the
// SDX controller to its fabric switches: HELLO/FEATURES handshake, FLOW_MOD
// with the 40-byte ofp_match and the header-rewrite/output actions,
// PACKET_IN/PACKET_OUT, BARRIER, and ECHO. The package also translates
// between compiled policy rules (policy.Rule) and flow-mod messages, so the
// controller and the software switch share one faithful wire format.
package openflow

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ProtocolVersion is OpenFlow 1.0.
const ProtocolVersion = 0x01

// MsgType is an OpenFlow message type.
type MsgType uint8

// OpenFlow 1.0 message types (the supported subset).
const (
	TypeHello           MsgType = 0
	TypeError           MsgType = 1
	TypeEchoRequest     MsgType = 2
	TypeEchoReply       MsgType = 3
	TypeFeaturesRequest MsgType = 5
	TypeFeaturesReply   MsgType = 6
	TypePacketIn        MsgType = 10
	TypePacketOut       MsgType = 13
	TypeFlowMod         MsgType = 14
	TypeStatsRequest    MsgType = 16
	TypeStatsReply      MsgType = 17
	TypeBarrierRequest  MsgType = 18
	TypeBarrierReply    MsgType = 19
)

func (t MsgType) String() string {
	names := map[MsgType]string{
		TypeHello: "HELLO", TypeError: "ERROR", TypeEchoRequest: "ECHO_REQUEST",
		TypeEchoReply: "ECHO_REPLY", TypeFeaturesRequest: "FEATURES_REQUEST",
		TypeFeaturesReply: "FEATURES_REPLY", TypePacketIn: "PACKET_IN",
		TypePacketOut: "PACKET_OUT", TypeFlowMod: "FLOW_MOD",
		TypeStatsRequest: "STATS_REQUEST", TypeStatsReply: "STATS_REPLY",
		TypeBarrierRequest: "BARRIER_REQUEST", TypeBarrierReply: "BARRIER_REPLY",
	}
	if n, ok := names[t]; ok {
		return n
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

const headerLen = 8

// Header is the 8-byte OpenFlow message header.
type Header struct {
	Type MsgType
	XID  uint32
}

// Message is a decoded OpenFlow message: its header plus the raw body.
// Typed accessors (DecodeFlowMod, DecodePacketIn, ...) interpret the body.
type Message struct {
	Header
	Body []byte
}

// Encode renders a message for the wire.
func Encode(t MsgType, xid uint32, body []byte) []byte {
	return AppendMessage(make([]byte, 0, headerLen+len(body)), t, xid, body)
}

// AppendMessage appends the wire form of a message to dst, so several
// messages can be written with one Conn.Send.
func AppendMessage(dst []byte, t MsgType, xid uint32, body []byte) []byte {
	off := len(dst)
	dst = append(appendHeader(dst, t, xid), body...)
	return setLength(dst, off)
}

// appendHeader appends a header whose length field setLength fills in once
// the body has been appended after it.
func appendHeader(dst []byte, t MsgType, xid uint32) []byte {
	dst = append(dst, ProtocolVersion, byte(t), 0, 0)
	return binary.BigEndian.AppendUint32(dst, xid)
}

// setLength writes the length of the message that starts at off and runs
// to the end of b into its header.
func setLength(b []byte, off int) []byte {
	binary.BigEndian.PutUint16(b[off+2:off+4], uint16(len(b)-off))
	return b
}

// ReadMessage reads one OpenFlow message from r.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	h, n, err := parseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	return readBody(r, h, n)
}

// parseHeader checks a message header and returns it with the length of
// the body that follows it.
func parseHeader(hdr []byte) (Header, int, error) {
	if hdr[0] != ProtocolVersion {
		return Header{}, 0, fmt.Errorf("openflow: unsupported version %#02x", hdr[0])
	}
	length := binary.BigEndian.Uint16(hdr[2:4])
	if length < headerLen {
		return Header{}, 0, fmt.Errorf("openflow: bad length %d", length)
	}
	h := Header{Type: MsgType(hdr[1]), XID: binary.BigEndian.Uint32(hdr[4:8])}
	return h, int(length) - headerLen, nil
}

// readBody reads an n-byte body from r into a new Message with header h.
func readBody(r io.Reader, h Header, n int) (*Message, error) {
	m := &Message{Header: h, Body: make([]byte, n)}
	if _, err := io.ReadFull(r, m.Body); err != nil {
		return nil, err
	}
	return m, nil
}

// FlowMod commands.
const (
	FlowModAdd          uint16 = 0
	FlowModModify       uint16 = 1
	FlowModDelete       uint16 = 3
	FlowModDeleteStrict uint16 = 4
)

// Special port numbers (OF 1.0 §5.2.1).
const (
	PortController uint16 = 0xfffd
	PortNone       uint16 = 0xffff
	PortFlood      uint16 = 0xfffb
)

// FlowMod is the flow-table modification message.
type FlowMod struct {
	Match    Match
	Cookie   uint64
	Command  uint16
	Priority uint16
	Actions  []Action
}

// EncodeFlowMod renders fm with the given transaction id.
func EncodeFlowMod(fm *FlowMod, xid uint32) []byte {
	// Every fixed-size action is at most 16 bytes, so this is exact for all
	// but group actions with more than five ports.
	return AppendFlowMod(make([]byte, 0, headerLen+flowModFixed+16*len(fm.Actions)), fm, xid)
}

// flowModFixed is a FLOW_MOD body without its actions: the match and 24
// bytes of cookie, command, timeouts, priority, buffer id, out_port, flags.
const flowModFixed = matchLen + 24

// AppendFlowMod appends fm, rendered with the given transaction id, to dst:
// the bytes EncodeFlowMod returns, without an allocation of their own.
func AppendFlowMod(dst []byte, fm *FlowMod, xid uint32) []byte {
	off := len(dst)
	body := appendHeader(dst, TypeFlowMod, xid)
	body = fm.Match.encode(body)
	body = binary.BigEndian.AppendUint64(body, fm.Cookie)
	body = binary.BigEndian.AppendUint16(body, fm.Command)
	body = binary.BigEndian.AppendUint16(body, 0) // idle timeout
	body = binary.BigEndian.AppendUint16(body, 0) // hard timeout
	body = binary.BigEndian.AppendUint16(body, fm.Priority)
	body = binary.BigEndian.AppendUint32(body, 0xffffffff) // buffer id: none
	body = binary.BigEndian.AppendUint16(body, PortNone)   // out_port (delete filter)
	body = binary.BigEndian.AppendUint16(body, 0)          // flags
	for _, a := range fm.Actions {
		body = a.encode(body)
	}
	return setLength(body, off)
}

// DecodeFlowMod parses a FLOW_MOD body.
func (m *Message) DecodeFlowMod() (*FlowMod, error) {
	if m.Type != TypeFlowMod {
		return nil, fmt.Errorf("openflow: %v is not FLOW_MOD", m.Type)
	}
	if len(m.Body) < flowModFixed {
		return nil, fmt.Errorf("openflow: FLOW_MOD truncated: %d bytes", len(m.Body))
	}
	fm := &FlowMod{}
	var err error
	if fm.Match, err = decodeMatch(m.Body[:matchLen]); err != nil {
		return nil, err
	}
	rest := m.Body[matchLen:]
	fm.Cookie = binary.BigEndian.Uint64(rest[0:8])
	fm.Command = binary.BigEndian.Uint16(rest[8:10])
	fm.Priority = binary.BigEndian.Uint16(rest[14:16])
	fm.Actions, err = decodeActions(rest[24:])
	if err != nil {
		return nil, err
	}
	return fm, nil
}

// PacketIn is the switch-to-controller packet event.
type PacketIn struct {
	BufferID uint32
	InPort   uint16
	Reason   uint8
	Data     []byte
}

// Packet-in reasons.
const (
	ReasonNoMatch uint8 = 0
	ReasonAction  uint8 = 1
)

// EncodePacketIn renders pi.
func EncodePacketIn(pi *PacketIn, xid uint32) []byte {
	body := binary.BigEndian.AppendUint32(nil, pi.BufferID)
	body = binary.BigEndian.AppendUint16(body, uint16(len(pi.Data)))
	body = binary.BigEndian.AppendUint16(body, pi.InPort)
	body = append(body, pi.Reason, 0)
	body = append(body, pi.Data...)
	return Encode(TypePacketIn, xid, body)
}

// DecodePacketIn parses a PACKET_IN body.
func (m *Message) DecodePacketIn() (*PacketIn, error) {
	if m.Type != TypePacketIn {
		return nil, fmt.Errorf("openflow: %v is not PACKET_IN", m.Type)
	}
	if len(m.Body) < 10 {
		return nil, fmt.Errorf("openflow: PACKET_IN truncated")
	}
	return &PacketIn{
		BufferID: binary.BigEndian.Uint32(m.Body[0:4]),
		InPort:   binary.BigEndian.Uint16(m.Body[6:8]),
		Reason:   m.Body[8],
		Data:     append([]byte(nil), m.Body[10:]...),
	}, nil
}

// PacketOut is the controller-to-switch packet injection.
type PacketOut struct {
	InPort  uint16
	Actions []Action
	Data    []byte
}

// EncodePacketOut renders po.
func EncodePacketOut(po *PacketOut, xid uint32) []byte {
	var acts []byte
	for _, a := range po.Actions {
		acts = a.encode(acts)
	}
	body := binary.BigEndian.AppendUint32(nil, 0xffffffff) // buffer id: none
	body = binary.BigEndian.AppendUint16(body, po.InPort)
	body = binary.BigEndian.AppendUint16(body, uint16(len(acts)))
	body = append(body, acts...)
	body = append(body, po.Data...)
	return Encode(TypePacketOut, xid, body)
}

// DecodePacketOut parses a PACKET_OUT body.
func (m *Message) DecodePacketOut() (*PacketOut, error) {
	if m.Type != TypePacketOut {
		return nil, fmt.Errorf("openflow: %v is not PACKET_OUT", m.Type)
	}
	if len(m.Body) < 8 {
		return nil, fmt.Errorf("openflow: PACKET_OUT truncated")
	}
	actLen := int(binary.BigEndian.Uint16(m.Body[6:8]))
	if 8+actLen > len(m.Body) {
		return nil, fmt.Errorf("openflow: PACKET_OUT action length %d overruns body", actLen)
	}
	actions, err := decodeActions(m.Body[8 : 8+actLen])
	if err != nil {
		return nil, err
	}
	return &PacketOut{
		InPort:  binary.BigEndian.Uint16(m.Body[4:6]),
		Actions: actions,
		Data:    append([]byte(nil), m.Body[8+actLen:]...),
	}, nil
}

// FeaturesReply describes the switch (datapath id and port count are all
// the SDX needs).
type FeaturesReply struct {
	DatapathID uint64
	NumPorts   uint16
}

// EncodeFeaturesReply renders fr.
func EncodeFeaturesReply(fr *FeaturesReply, xid uint32) []byte {
	body := binary.BigEndian.AppendUint64(nil, fr.DatapathID)
	body = binary.BigEndian.AppendUint32(body, 256) // buffers
	body = append(body, 1, 0, 0, 0)                 // tables, pad
	body = binary.BigEndian.AppendUint32(body, 0)   // capabilities
	body = binary.BigEndian.AppendUint32(body, 0)   // actions
	// Port descriptions elided; we carry only the count for convenience.
	body = binary.BigEndian.AppendUint16(body, fr.NumPorts)
	return Encode(TypeFeaturesReply, xid, body)
}

// DecodeFeaturesReply parses a FEATURES_REPLY body.
func (m *Message) DecodeFeaturesReply() (*FeaturesReply, error) {
	if m.Type != TypeFeaturesReply {
		return nil, fmt.Errorf("openflow: %v is not FEATURES_REPLY", m.Type)
	}
	if len(m.Body) < 26 {
		return nil, fmt.Errorf("openflow: FEATURES_REPLY truncated")
	}
	return &FeaturesReply{
		DatapathID: binary.BigEndian.Uint64(m.Body[0:8]),
		NumPorts:   binary.BigEndian.Uint16(m.Body[24:26]),
	}, nil
}
