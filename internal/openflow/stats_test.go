package openflow

import (
	"bytes"
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
	got, err := msg.DecodeFlowStatsReply()
	if err != nil {
		t.Fatal(err)
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
	got, err := msg.DecodeFlowStatsReply()
	if err != nil || len(got) != 0 {
		t.Errorf("empty reply = %v, %v", got, err)
	}
}

func TestFlowStatsWrongTypes(t *testing.T) {
	hello := &Message{Header: Header{Type: TypeHello}}
	if _, err := hello.DecodeFlowStatsReply(); err == nil {
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
	out, err := msg.DecodePortStatsReply()
	if err != nil {
		t.Fatal(err)
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
	if _, err := msg.DecodeFlowStatsReply(); err == nil {
		t.Error("DecodeFlowStatsReply on a port-stats reply should fail")
	}
	flowRaw := EncodeFlowStatsReply(nil, 11)
	flowMsg, err := ReadMessage(bytes.NewReader(flowRaw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flowMsg.DecodePortStatsReply(); err == nil {
		t.Error("DecodePortStatsReply on a flow-stats reply should fail")
	}
}
