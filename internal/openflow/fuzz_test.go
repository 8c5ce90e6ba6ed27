package openflow

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"sdx/internal/policy"
)

// FuzzDecodeFlowMod: any FLOW_MOD the switch accepts from the wire
// re-encodes to a message that decodes to the same FlowMod and re-encodes to
// the same bytes. Decoding may canonicalize (padding, ignored header fields,
// timeouts), but only once: the first re-encoding is a fixpoint. The match
// — whose dst-MAC field decides which cached flows a write invalidates —
// must survive unchanged, in policy form too.
func FuzzDecodeFlowMod(f *testing.F) {
	for _, fm := range []*FlowMod{
		{Match: MatchFromPolicy(policy.MatchAll.Port(1).DstPort(80)), Command: FlowModAdd, Priority: 42,
			Actions: []Action{{Type: ActionTypeSetDLDst, MAC: macY}, Output(7)}},
		{Match: MatchFromPolicy(policy.MatchAll.DstMAC(macX).SrcMAC(macY).EthType(0x0800).
			DstIP(netip.MustParsePrefix("10.1.0.0/16")).SrcIP(netip.MustParsePrefix("192.0.2.0/24"))),
			Command: FlowModDeleteStrict, Priority: 0xefff, Cookie: 7},
		{Match: MatchFromPolicy(policy.MatchAll.Proto(6).SrcPort(4000)), Command: FlowModDelete},
		{Match: MatchFromPolicy(policy.MatchAll.DstIP(netip.MustParsePrefix("239.9.0.0/16"))), Command: FlowModAdd,
			Actions: []Action{Group([]uint16{3, 1, 2}), {Type: ActionTypeSetNWDst, IP: 0x01010101},
				{Type: ActionTypeSetTPSrc, TP: 99}, Output(PortController)}},
	} {
		f.Add(EncodeFlowMod(fm, 1))
	}
	// The prefix lengths at the edges of the 6-bit wildcard counters.
	for _, p := range []string{"0.0.0.0/0", "128.0.0.0/1", "10.0.0.6/31", "10.0.0.7/32"} {
		m := policy.MatchAll.SrcIP(netip.MustParsePrefix(p)).DstIP(netip.MustParsePrefix(p))
		f.Add(EncodeFlowMod(&FlowMod{Match: MatchFromPolicy(m), Command: FlowModAdd, Actions: []Action{Output(1)}}, 2))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		fm1, err := msg.DecodeFlowMod()
		if err != nil {
			return
		}
		wire1 := EncodeFlowMod(fm1, msg.XID)
		msg2, err := ReadMessage(bytes.NewReader(wire1))
		if err != nil {
			t.Fatalf("re-encoding of %+v does not read back: %v\n %x", fm1, err, wire1)
		}
		if msg2.Header != msg.Header {
			t.Fatalf("re-encoding changed the header: %+v -> %+v", msg.Header, msg2.Header)
		}
		fm2, err := msg2.DecodeFlowMod()
		if err != nil {
			t.Fatalf("re-encoding of %+v does not decode: %v\n %x", fm1, err, wire1)
		}
		if !reflect.DeepEqual(fm1, fm2) {
			t.Fatalf("round trip changed the FLOW_MOD:\n in  %+v\n out %+v", fm1, fm2)
		}
		if fm1.Match.ToPolicy() != fm2.Match.ToPolicy() {
			t.Fatalf("round trip changed the policy match: %v -> %v", fm1.Match.ToPolicy(), fm2.Match.ToPolicy())
		}
		if wire2 := EncodeFlowMod(fm2, msg.XID); !bytes.Equal(wire1, wire2) {
			t.Fatalf("re-encoding is not a fixpoint:\n %x\n %x", wire1, wire2)
		}
	})
}
