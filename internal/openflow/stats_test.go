package openflow

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"sdx/internal/policy"
)

func TestFlowStatsRoundTrip(t *testing.T) {
	entries := []FlowStatsEntry{
		{
			Match:    MatchFromPolicy(policy.MatchAll.Port(1).DstPort(80)),
			Priority: 100,
			Packets:  12345,
			Bytes:    9876543,
			Actions:  []Action{Output(2)},
		},
		{
			Match:    MatchFromPolicy(policy.MatchAll.DstMAC(macY)),
			Priority: 10,
			Packets:  1,
			Bytes:    60,
			Actions:  []Action{{Type: ActionTypeSetDLDst, MAC: macX}, Output(3)},
		},
	}
	wire := EncodeFlowStatsReply(entries, 7)
	msg, err := ReadMessage(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if msg.XID != 7 {
		t.Fatalf("xid = %d", msg.XID)
	}
	got, more, err := msg.DecodeFlowStatsReply()
	if err != nil {
		t.Fatal(err)
	}
	if more {
		t.Error("a two-entry reply is flagged as having more parts")
	}
	if len(got) != 2 {
		t.Fatalf("entries = %d", len(got))
	}
	if got[0].Packets != 12345 || got[0].Bytes != 9876543 || got[0].Priority != 100 {
		t.Errorf("entry 0 = %+v", got[0])
	}
	if got[0].Match.ToPolicy() != policy.MatchAll.Port(1).DstPort(80) {
		t.Errorf("entry 0 match = %v", got[0].Match.ToPolicy())
	}
	if len(got[1].Actions) != 2 || got[1].Actions[1].Port != 3 {
		t.Errorf("entry 1 actions = %+v", got[1].Actions)
	}
}

func TestFlowStatsRequestRoundTrip(t *testing.T) {
	req := &FlowStatsRequest{Match: MatchFromPolicy(policy.MatchAll.Port(2))}
	msg, err := ReadMessage(bytes.NewReader(EncodeFlowStatsRequest(req, 9)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := msg.DecodeFlowStatsRequest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Match.ToPolicy() != policy.MatchAll.Port(2) {
		t.Errorf("match = %v", got.Match.ToPolicy())
	}
}

func TestFlowStatsEmptyReply(t *testing.T) {
	msg, _ := ReadMessage(bytes.NewReader(EncodeFlowStatsReply(nil, 1)))
	got, more, err := msg.DecodeFlowStatsReply()
	if err != nil || len(got) != 0 || more {
		t.Errorf("empty reply = %v, more %v, %v", got, more, err)
	}
}

func TestFlowStatsWrongTypes(t *testing.T) {
	hello := &Message{Header: Header{Type: TypeHello}}
	if _, _, err := hello.DecodeFlowStatsReply(); err == nil {
		t.Error("DecodeFlowStatsReply on HELLO should fail")
	}
	if _, err := hello.DecodeFlowStatsRequest(); err == nil {
		t.Error("DecodeFlowStatsRequest on HELLO should fail")
	}
}

func TestPortStatsRoundTrip(t *testing.T) {
	// Request (ofp_port_stats_request: port_no plus 6 bytes of padding),
	// built by hand: single port and the all-ports wildcard.
	for _, portNo := range []uint16{3, PortNone} {
		body := []byte{0, byte(StatsTypePort), 0, 0, byte(portNo >> 8), byte(portNo), 0, 0, 0, 0, 0, 0}
		raw := Encode(TypeStatsRequest, 9, body)
		msg, err := ReadMessage(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := msg.StatsType(); st != StatsTypePort {
			t.Fatalf("stats type = %d, want %d", st, StatsTypePort)
		}
		req, err := msg.DecodePortStatsRequest()
		if err != nil {
			t.Fatal(err)
		}
		if req.PortNo != portNo {
			t.Errorf("port = %d, want %d", req.PortNo, portNo)
		}
	}

	// Reply: entries survive the 104-byte ofp_port_stats encoding.
	in := []PortStatsEntry{
		{PortNo: 1, RxPackets: 10, TxPackets: 20, RxBytes: 1000, TxBytes: 2000},
		{PortNo: 2, RxPackets: 0, TxPackets: 1, RxBytes: 0, TxBytes: 60},
	}
	raw := EncodePortStatsReply(in, 10)
	msg, err := ReadMessage(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out, more, err := msg.DecodePortStatsReply()
	if err != nil || more {
		t.Fatalf("more %v, err %v", more, err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d = %+v, want %+v", i, out[i], in[i])
		}
	}

	// Cross-type decodes must fail rather than misparse.
	if _, _, err := msg.DecodeFlowStatsReply(); err == nil {
		t.Error("DecodeFlowStatsReply on a port-stats reply should fail")
	}
	flowRaw := EncodeFlowStatsReply(nil, 11)
	flowMsg, err := ReadMessage(bytes.NewReader(flowRaw))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := flowMsg.DecodePortStatsReply(); err == nil {
		t.Error("DecodePortStatsReply on a flow-stats reply should fail")
	}
}

// readParts reads every message of a reply stream and checks the parts'
// framing: each fits the 16-bit length, and exactly the last one lacks
// StatsReplyMore.
func readParts(t *testing.T, wire []byte) []*Message {
	t.Helper()
	var parts []*Message
	r := bytes.NewReader(wire)
	for r.Len() > 0 {
		msg, err := ReadMessage(r)
		if err != nil {
			t.Fatalf("part %d: %v", len(parts), err)
		}
		parts = append(parts, msg)
	}
	for i, p := range parts {
		if n := headerLen + len(p.Body); n > 0xffff {
			t.Fatalf("part %d is %d bytes", i, n)
		}
		more := binary.BigEndian.Uint16(p.Body[2:4])&StatsReplyMore != 0
		if last := i == len(parts)-1; more == last {
			t.Fatalf("part %d of %d: more flag %v", i, len(parts), more)
		}
	}
	return parts
}

// TestStatsReplySplitAtLimit pins the cut: entries that make the message
// exactly 65,535 bytes stay in one part, and one byte more opens a second.
// Entry sizes are arbitrary here; real flow and port entries are multiples
// of 8 bytes, so no encoder output lands on the limit itself.
func TestStatsReplySplitAtLimit(t *testing.T) {
	for _, tc := range []struct {
		entries []int
		parts   int
	}{
		{[]int{0xffff - statsReplyHead}, 1},
		{[]int{40000, 0xffff - statsReplyHead - 40000}, 1},
		{[]int{40000, 0xffff - statsReplyHead - 40000 + 1}, 2},
		{[]int{0xffff - statsReplyHead, 1}, 2},
	} {
		r := newStatsReply(StatsTypeFlow, 3)
		var want []byte
		for i, n := range tc.entries {
			r.reserve(n)
			entry := bytes.Repeat([]byte{byte(i + 1)}, n)
			r.b = append(r.b, entry...)
			want = append(want, entry...)
		}
		parts := readParts(t, r.bytes())
		if len(parts) != tc.parts {
			t.Errorf("entries %v: %d parts, want %d", tc.entries, len(parts), tc.parts)
		}
		var got []byte
		for _, p := range parts {
			if p.XID != 3 {
				t.Errorf("part xid %d, want 3", p.XID)
			}
			got = append(got, p.Body[4:]...)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("entries %v: the parts do not carry the entries in order", tc.entries)
		}
	}
}

// TestStatsReplyMultiPart round-trips tables too large for one message:
// 1,500 one-action flows (about 144 kB) and 700 ports (about 73 kB).
func TestStatsReplyMultiPart(t *testing.T) {
	flows := make([]FlowStatsEntry, 1500)
	for i := range flows {
		flows[i] = FlowStatsEntry{
			Match:    MatchFromPolicy(policy.MatchAll.Port(uint16(i%48 + 1)).DstPort(uint16(i))),
			Priority: uint16(i),
			Packets:  uint64(i),
			Actions:  []Action{Output(uint16(i%48 + 1))},
		}
	}
	var gotFlows []FlowStatsEntry
	parts := readParts(t, EncodeFlowStatsReply(flows, 5))
	for _, p := range parts {
		es, _, err := p.DecodeFlowStatsReply()
		if err != nil {
			t.Fatal(err)
		}
		gotFlows = append(gotFlows, es...)
	}
	if len(parts) < 3 || !reflect.DeepEqual(gotFlows, flows) {
		t.Errorf("%d flows came back as %d in %d parts", len(flows), len(gotFlows), len(parts))
	}

	ports := make([]PortStatsEntry, 700)
	for i := range ports {
		ports[i] = PortStatsEntry{PortNo: uint16(i + 1), RxPackets: uint64(i)}
	}
	var gotPorts []PortStatsEntry
	parts = readParts(t, EncodePortStatsReply(ports, 6))
	for _, p := range parts {
		es, _, err := p.DecodePortStatsReply()
		if err != nil {
			t.Fatal(err)
		}
		gotPorts = append(gotPorts, es...)
	}
	if len(parts) != 2 || !reflect.DeepEqual(gotPorts, ports) {
		t.Errorf("%d ports came back as %d in %d parts", len(ports), len(gotPorts), len(parts))
	}
}
