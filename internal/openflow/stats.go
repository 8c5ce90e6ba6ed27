package openflow

import (
	"encoding/binary"
	"fmt"
)

// Stats types (OF 1.0 §5.3.5): flow stats feed the per-policy traffic
// monitoring of the Figure 5 series; port stats feed the telemetry layer's
// per-port RX/TX counters.
const (
	StatsTypeFlow uint16 = 1
	StatsTypePort uint16 = 4
)

// StatsType returns the stats subtype of a STATS_REQUEST or STATS_REPLY.
func (m *Message) StatsType() (uint16, error) {
	if m.Type != TypeStatsRequest && m.Type != TypeStatsReply {
		return 0, fmt.Errorf("openflow: %v is not a stats message", m.Type)
	}
	if len(m.Body) < 2 {
		return 0, fmt.Errorf("openflow: stats message truncated")
	}
	return binary.BigEndian.Uint16(m.Body[0:2]), nil
}

// FlowStatsRequest asks for the counters of every flow entry subsumed by
// Match (MatchAll for a full dump).
type FlowStatsRequest struct {
	Match Match
}

// EncodeFlowStatsRequest renders the request.
func EncodeFlowStatsRequest(req *FlowStatsRequest, xid uint32) []byte {
	body := binary.BigEndian.AppendUint16(nil, StatsTypeFlow)
	body = binary.BigEndian.AppendUint16(body, 0) // flags
	body = req.Match.encode(body)
	body = append(body, 0xff, 0)                         // table id: all, pad
	body = binary.BigEndian.AppendUint16(body, PortNone) // out_port filter: none
	return Encode(TypeStatsRequest, xid, body)
}

// DecodeFlowStatsRequest parses a STATS_REQUEST body.
func (m *Message) DecodeFlowStatsRequest() (*FlowStatsRequest, error) {
	if m.Type != TypeStatsRequest {
		return nil, fmt.Errorf("openflow: %v is not STATS_REQUEST", m.Type)
	}
	if len(m.Body) < 4+matchLen+4 {
		return nil, fmt.Errorf("openflow: STATS_REQUEST truncated: %d bytes", len(m.Body))
	}
	if st := binary.BigEndian.Uint16(m.Body[0:2]); st != StatsTypeFlow {
		return nil, fmt.Errorf("openflow: unsupported stats type %d", st)
	}
	match, err := decodeMatch(m.Body[4 : 4+matchLen])
	if err != nil {
		return nil, err
	}
	return &FlowStatsRequest{Match: match}, nil
}

// FlowStatsEntry is one flow's counters in a stats reply.
type FlowStatsEntry struct {
	Match    Match
	Priority uint16
	Packets  uint64
	Bytes    uint64
	Actions  []Action
}

const flowStatsFixed = 2 + 1 + 1 + matchLen + 4 + 4 + 2 + 2 + 2 + 6 + 8 + 8 + 8

// EncodeFlowStatsReply renders the counters of the given entries.
func EncodeFlowStatsReply(entries []FlowStatsEntry, xid uint32) []byte {
	body := binary.BigEndian.AppendUint16(nil, StatsTypeFlow)
	body = binary.BigEndian.AppendUint16(body, 0) // flags: no more parts
	for _, e := range entries {
		var acts []byte
		for _, a := range e.Actions {
			acts = a.encode(acts)
		}
		body = binary.BigEndian.AppendUint16(body, uint16(flowStatsFixed+len(acts)))
		body = append(body, 0, 0) // table id, pad
		body = e.Match.encode(body)
		body = binary.BigEndian.AppendUint32(body, 0) // duration sec
		body = binary.BigEndian.AppendUint32(body, 0) // duration nsec
		body = binary.BigEndian.AppendUint16(body, e.Priority)
		body = binary.BigEndian.AppendUint16(body, 0) // idle timeout
		body = binary.BigEndian.AppendUint16(body, 0) // hard timeout
		body = append(body, 0, 0, 0, 0, 0, 0)         // pad
		body = binary.BigEndian.AppendUint64(body, 0) // cookie
		body = binary.BigEndian.AppendUint64(body, e.Packets)
		body = binary.BigEndian.AppendUint64(body, e.Bytes)
		body = append(body, acts...)
	}
	return Encode(TypeStatsReply, xid, body)
}

// DecodeFlowStatsReply parses a STATS_REPLY body.
func (m *Message) DecodeFlowStatsReply() ([]FlowStatsEntry, error) {
	if m.Type != TypeStatsReply {
		return nil, fmt.Errorf("openflow: %v is not STATS_REPLY", m.Type)
	}
	if len(m.Body) < 4 {
		return nil, fmt.Errorf("openflow: STATS_REPLY truncated")
	}
	if st := binary.BigEndian.Uint16(m.Body[0:2]); st != StatsTypeFlow {
		return nil, fmt.Errorf("openflow: unsupported stats type %d", st)
	}
	b := m.Body[4:]
	var out []FlowStatsEntry
	for len(b) > 0 {
		if len(b) < flowStatsFixed {
			return nil, fmt.Errorf("openflow: flow stats entry truncated: %d bytes", len(b))
		}
		entryLen := int(binary.BigEndian.Uint16(b[0:2]))
		if entryLen < flowStatsFixed || entryLen > len(b) {
			return nil, fmt.Errorf("openflow: bad flow stats entry length %d", entryLen)
		}
		var e FlowStatsEntry
		var err error
		e.Match, err = decodeMatch(b[4 : 4+matchLen])
		if err != nil {
			return nil, err
		}
		rest := b[4+matchLen:]
		// rest layout: duration sec(4) nsec(4), priority(2), idle(2),
		// hard(2), pad(6), cookie(8), packets(8), bytes(8).
		e.Priority = binary.BigEndian.Uint16(rest[8:10])
		e.Packets = binary.BigEndian.Uint64(rest[28:36])
		e.Bytes = binary.BigEndian.Uint64(rest[36:44])
		e.Actions, err = decodeActions(b[flowStatsFixed:entryLen])
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		b = b[entryLen:]
	}
	return out, nil
}

// RequestFlowStats sends a flow-stats request and returns its transaction
// id; the caller matches the STATS_REPLY by xid in its receive loop.
func (c *Conn) RequestFlowStats(match Match) (uint32, error) {
	xid := c.NextXID()
	return xid, c.Send(EncodeFlowStatsRequest(&FlowStatsRequest{Match: match}, xid))
}

// PortStatsRequest asks for one port's counters, or every port's with
// PortNone.
type PortStatsRequest struct {
	PortNo uint16
}

// DecodePortStatsRequest parses a port-stats STATS_REQUEST body.
func (m *Message) DecodePortStatsRequest() (*PortStatsRequest, error) {
	st, err := m.StatsType()
	if err != nil {
		return nil, err
	}
	if m.Type != TypeStatsRequest || st != StatsTypePort {
		return nil, fmt.Errorf("openflow: not a port-stats request")
	}
	if len(m.Body) < 4+2 {
		return nil, fmt.Errorf("openflow: port-stats request truncated")
	}
	return &PortStatsRequest{PortNo: binary.BigEndian.Uint16(m.Body[4:6])}, nil
}

// PortStatsEntry is one port's counters in a stats reply. Only the RX/TX
// packet and byte counters are meaningful for the software fabric; the
// error and collision fields of ofp_port_stats are encoded as zero.
type PortStatsEntry struct {
	PortNo    uint16
	RxPackets uint64
	TxPackets uint64
	RxBytes   uint64
	TxBytes   uint64
}

// portStatsEntryLen is sizeof(ofp_port_stats): port_no(2) + pad(6) + 12
// 64-bit counters.
const portStatsEntryLen = 2 + 6 + 12*8

// EncodePortStatsReply renders the counters of the given ports.
func EncodePortStatsReply(entries []PortStatsEntry, xid uint32) []byte {
	body := binary.BigEndian.AppendUint16(nil, StatsTypePort)
	body = binary.BigEndian.AppendUint16(body, 0) // flags: no more parts
	for _, e := range entries {
		body = binary.BigEndian.AppendUint16(body, e.PortNo)
		body = append(body, 0, 0, 0, 0, 0, 0) // pad
		body = binary.BigEndian.AppendUint64(body, e.RxPackets)
		body = binary.BigEndian.AppendUint64(body, e.TxPackets)
		body = binary.BigEndian.AppendUint64(body, e.RxBytes)
		body = binary.BigEndian.AppendUint64(body, e.TxBytes)
		for i := 0; i < 8; i++ { // rx/tx dropped & errors, frame/over/crc, collisions
			body = binary.BigEndian.AppendUint64(body, 0)
		}
	}
	return Encode(TypeStatsReply, xid, body)
}

// DecodePortStatsReply parses a port-stats STATS_REPLY body.
func (m *Message) DecodePortStatsReply() ([]PortStatsEntry, error) {
	st, err := m.StatsType()
	if err != nil {
		return nil, err
	}
	if m.Type != TypeStatsReply || st != StatsTypePort {
		return nil, fmt.Errorf("openflow: not a port-stats reply")
	}
	if len(m.Body) < 4 {
		return nil, fmt.Errorf("openflow: port-stats reply truncated")
	}
	b := m.Body[4:]
	var out []PortStatsEntry
	for len(b) > 0 {
		if len(b) < portStatsEntryLen {
			return nil, fmt.Errorf("openflow: port stats entry truncated: %d bytes", len(b))
		}
		out = append(out, PortStatsEntry{
			PortNo:    binary.BigEndian.Uint16(b[0:2]),
			RxPackets: binary.BigEndian.Uint64(b[8:16]),
			TxPackets: binary.BigEndian.Uint64(b[16:24]),
			RxBytes:   binary.BigEndian.Uint64(b[24:32]),
			TxBytes:   binary.BigEndian.Uint64(b[32:40]),
		})
		b = b[portStatsEntryLen:]
	}
	return out, nil
}
