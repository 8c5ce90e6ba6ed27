package openflow

import (
	"bytes"
	"math/rand"
	"net"
	"net/netip"
	"testing"

	"sdx/internal/netutil"
	"sdx/internal/policy"
)

var (
	macX = netutil.MustParseMAC("02:00:00:00:00:01")
	macY = netutil.MustParseMAC("02:00:00:00:00:02")
)

func TestMatchRoundTripThroughWire(t *testing.T) {
	pm := policy.MatchAll.Port(3).
		DstMAC(macX).
		EthType(0x0800).
		SrcIP(netip.MustParsePrefix("10.0.0.0/8")).
		DstIP(netip.MustParsePrefix("192.168.1.0/24")).
		Proto(6).
		SrcPort(1000).
		DstPort(80)
	om := MatchFromPolicy(pm)
	wire := om.encode(nil)
	if len(wire) != matchLen {
		t.Fatalf("encoded match is %d bytes, want %d", len(wire), matchLen)
	}
	back, err := decodeMatch(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.ToPolicy(); got != pm {
		t.Errorf("round trip = %v, want %v", got, pm)
	}
}

func TestMatchAllRoundTrip(t *testing.T) {
	om := MatchFromPolicy(policy.MatchAll)
	back, err := decodeMatch(om.encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.ToPolicy(); got != policy.MatchAll {
		t.Errorf("MatchAll round trip = %v", got)
	}
}

func TestMatchRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		pm := policy.MatchAll
		if rng.Intn(2) == 0 {
			pm = pm.Port(uint16(rng.Intn(65535)))
		}
		if rng.Intn(2) == 0 {
			pm = pm.DstMAC(netutil.MACFromUint64(rng.Uint64() & 0xffffffffffff))
		}
		if rng.Intn(2) == 0 {
			pm = pm.SrcMAC(netutil.MACFromUint64(rng.Uint64() & 0xffffffffffff))
		}
		if rng.Intn(2) == 0 {
			pm = pm.EthType(uint16(rng.Intn(65536)))
		}
		if rng.Intn(2) == 0 {
			var b [4]byte
			rng.Read(b[:])
			pm = pm.DstIP(netip.PrefixFrom(netip.AddrFrom4(b), rng.Intn(32)+1).Masked())
		}
		if rng.Intn(2) == 0 {
			var b [4]byte
			rng.Read(b[:])
			pm = pm.SrcIP(netip.PrefixFrom(netip.AddrFrom4(b), rng.Intn(32)+1).Masked())
		}
		if rng.Intn(2) == 0 {
			pm = pm.Proto(uint8(rng.Intn(256)))
		}
		if rng.Intn(2) == 0 {
			pm = pm.SrcPort(uint16(rng.Intn(65536)))
		}
		if rng.Intn(2) == 0 {
			pm = pm.DstPort(uint16(rng.Intn(65536)))
		}
		om := MatchFromPolicy(pm)
		back, err := decodeMatch(om.encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if got := back.ToPolicy(); got != pm {
			t.Fatalf("trial %d: round trip = %v, want %v", trial, got, pm)
		}
	}
}

// TestLowerRuleAllocations: lowering a single-copy rule into a caller's
// FlowMod allocates only its action list, and a drop rule nothing; the
// action list decoded back from the wire is sized once too.
func TestLowerRuleAllocations(t *testing.T) {
	rule := policy.Rule{
		Match:   policy.MatchAll.Port(1).DstPort(80),
		Actions: []policy.Mods{policy.Identity.SetDstMAC(macY).SetPort(7)},
	}
	drop := policy.Rule{Match: policy.MatchAll.Port(2)}
	var fm FlowMod
	for _, c := range []struct {
		name string
		rule policy.Rule
		want float64
	}{{"single copy", rule, 1}, {"drop", drop, 0}} {
		got := testing.AllocsPerRun(100, func() {
			if err := LowerRule(&fm, c.rule, 1); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %.0f allocations, want %.0f", c.name, got, c.want)
		}
	}
	if err := LowerRule(&fm, rule, 1); err != nil {
		t.Fatal(err)
	}
	body := EncodeFlowMod(&fm, 1)[headerLen+matchLen+24:]
	if got := testing.AllocsPerRun(100, func() { _, _ = decodeActions(body) }); got != 1 {
		t.Errorf("decoding two actions: %.0f allocations, want 1", got)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	rule := policy.Rule{
		Match: policy.MatchAll.Port(1).DstPort(80),
		Actions: []policy.Mods{
			policy.Identity.SetDstMAC(macY).SetPort(7),
		},
	}
	fm, err := FlowModFromRule(rule, 42)
	if err != nil {
		t.Fatal(err)
	}
	wire := EncodeFlowMod(fm, 9)
	msg, err := ReadMessage(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != TypeFlowMod || msg.XID != 9 {
		t.Fatalf("header = %+v", msg.Header)
	}
	got, err := msg.DecodeFlowMod()
	if err != nil {
		t.Fatal(err)
	}
	if got.Priority != 42 || got.Command != FlowModAdd {
		t.Errorf("priority/command = %d/%d", got.Priority, got.Command)
	}
	if got.Match.ToPolicy() != rule.Match {
		t.Errorf("match = %v", got.Match.ToPolicy())
	}
	if len(got.Actions) != 2 {
		t.Fatalf("actions = %+v", got.Actions)
	}
	if got.Actions[0].Type != ActionTypeSetDLDst || got.Actions[0].MAC != macY {
		t.Errorf("action 0 = %+v", got.Actions[0])
	}
	if got.Actions[1].Type != ActionTypeOutput || got.Actions[1].Port != 7 {
		t.Errorf("action 1 = %+v", got.Actions[1])
	}
}

func TestFlowModDropRule(t *testing.T) {
	rule := policy.Rule{Match: policy.MatchAll.Port(3)}
	fm, err := FlowModFromRule(rule, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Actions) != 0 {
		t.Errorf("drop rule must have no actions: %+v", fm.Actions)
	}
	msg, _ := ReadMessage(bytes.NewReader(EncodeFlowMod(fm, 1)))
	got, err := msg.DecodeFlowMod()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Actions) != 0 {
		t.Error("decoded drop rule grew actions")
	}
}

func TestFlowModMulticast(t *testing.T) {
	// Two copies with different rewrites; the dstport is pinned by the
	// match so the second copy can restore it.
	rule := policy.Rule{
		Match: policy.MatchAll.DstPort(80),
		Actions: []policy.Mods{
			policy.Identity.SetPort(2),
			policy.Identity.SetDstPort(8080).SetPort(3),
		},
	}
	fm, err := FlowModFromRule(rule, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: OUTPUT 2 (unmodified copy first), SET_TP_DST 8080, OUTPUT 3.
	if len(fm.Actions) != 3 {
		t.Fatalf("actions = %+v", fm.Actions)
	}
	if fm.Actions[0].Type != ActionTypeOutput || fm.Actions[0].Port != 2 {
		t.Errorf("action 0 = %+v", fm.Actions[0])
	}
	if fm.Actions[1].Type != ActionTypeSetTPDst || fm.Actions[1].TP != 8080 {
		t.Errorf("action 1 = %+v", fm.Actions[1])
	}
	if fm.Actions[2].Type != ActionTypeOutput || fm.Actions[2].Port != 3 {
		t.Errorf("action 2 = %+v", fm.Actions[2])
	}
}

func TestFlowModMulticastUnrestorable(t *testing.T) {
	// The first copy (lower rewrite count) rewrites dstip; the second needs
	// the original dstip back, but the match only pins a /8, so OF 1.0
	// cannot restore it; expect an error.
	rule := policy.Rule{
		Match: policy.MatchAll.DstIP(netip.MustParsePrefix("10.0.0.0/8")),
		Actions: []policy.Mods{
			policy.Identity.SetDstIP(netip.MustParseAddr("1.1.1.1")).SetPort(2),
			policy.Identity.SetSrcPort(99).SetDstPort(80).SetPort(3),
		},
	}
	if _, err := FlowModFromRule(rule, 1); err == nil {
		t.Error("unrestorable multicast should error")
	}
}

// TestFlowModFromRuleIPv4RoundTrip: an IPv4 prefix match and address
// rewrite lower to OF 1.0's 32-bit fields and read back unchanged. (Nothing
// else reaches the lowering: policy's constructors panic on a non-IPv4
// value.)
func TestFlowModFromRuleIPv4RoundTrip(t *testing.T) {
	fwd := policy.Identity.SetPort(2)
	v4 := policy.Rule{
		Match:   policy.MatchAll.DstIP(netip.MustParsePrefix("10.0.0.0/8")),
		Actions: []policy.Mods{fwd.SetDstIP(netip.MustParseAddr("10.0.0.1"))},
	}
	fm, err := FlowModFromRule(v4, 1)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(bytes.NewReader(EncodeFlowMod(fm, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if fm, err = msg.DecodeFlowMod(); err != nil {
		t.Fatal(err)
	}
	if fm.Match.ToPolicy() != v4.Match {
		t.Errorf("IPv4 match read back as %v", fm.Match.ToPolicy())
	}
	if a := fm.Actions[0]; a.Type != ActionTypeSetNWDst || a.IP.Addr() != netip.MustParseAddr("10.0.0.1") {
		t.Errorf("IPv4 rewrite read back as %+v", a)
	}
}

func TestPacketInOutRoundTrip(t *testing.T) {
	pi := &PacketIn{BufferID: 0xffffffff, InPort: 4, Reason: ReasonNoMatch, Data: []byte{1, 2, 3}}
	msg, err := ReadMessage(bytes.NewReader(EncodePacketIn(pi, 5)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := msg.DecodePacketIn()
	if err != nil {
		t.Fatal(err)
	}
	if got.InPort != 4 || got.Reason != ReasonNoMatch || !bytes.Equal(got.Data, pi.Data) {
		t.Errorf("PacketIn = %+v", got)
	}

	po := &PacketOut{InPort: PortNone, Actions: []Action{Output(2), Output(5)}, Data: []byte{9, 9}}
	msg, err = ReadMessage(bytes.NewReader(EncodePacketOut(po, 6)))
	if err != nil {
		t.Fatal(err)
	}
	gotPO, err := msg.DecodePacketOut()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPO.Actions) != 2 || gotPO.Actions[1].Port != 5 || !bytes.Equal(gotPO.Data, po.Data) {
		t.Errorf("PacketOut = %+v", gotPO)
	}
}

func TestActionsFromModsDrop(t *testing.T) {
	acts, err := ActionsFromMods(policy.Identity) // no port: drop
	if err != nil || acts != nil {
		t.Errorf("drop mods = %v, %v", acts, err)
	}
}

func TestHandshake(t *testing.T) {
	lnA, lnB := net.Pipe()
	ctrl, sw := NewConn(lnA), NewConn(lnB)
	done := make(chan error, 1)
	go func() {
		done <- sw.HandshakeSwitch(FeaturesReply{DatapathID: 0xdeadbeef, NumPorts: 12})
	}()
	fr, err := ctrl.HandshakeController()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if fr.DatapathID != 0xdeadbeef || fr.NumPorts != 12 {
		t.Errorf("features = %+v", fr)
	}
	ctrl.Close()
	sw.Close()
}

func TestConnFlowModDelivery(t *testing.T) {
	lnA, lnB := net.Pipe()
	ctrl, sw := NewConn(lnA), NewConn(lnB)
	defer ctrl.Close()
	defer sw.Close()

	fm := &FlowMod{
		Match:    MatchFromPolicy(policy.MatchAll.Port(1)),
		Command:  FlowModAdd,
		Priority: 7,
		Actions:  []Action{Output(2)},
	}
	go ctrl.SendFlowMod(fm)
	msg, err := sw.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, err := msg.DecodeFlowMod()
	if err != nil {
		t.Fatal(err)
	}
	if got.Priority != 7 || len(got.Actions) != 1 || got.Actions[0].Port != 2 {
		t.Errorf("FlowMod = %+v", got)
	}
}

func TestReadMessageErrors(t *testing.T) {
	// Wrong version.
	bad := Encode(TypeHello, 1, nil)
	bad[0] = 0x04
	if _, err := ReadMessage(bytes.NewReader(bad)); err == nil {
		t.Error("wrong version should fail")
	}
	// Truncated.
	good := Encode(TypeHello, 1, []byte{1, 2, 3})
	if _, err := ReadMessage(bytes.NewReader(good[:9])); err == nil {
		t.Error("truncated message should fail")
	}
	// Bad length field.
	short := Encode(TypeHello, 1, nil)
	short[2], short[3] = 0, 4
	if _, err := ReadMessage(bytes.NewReader(short)); err == nil {
		t.Error("length < header should fail")
	}
}

func TestDecodeWrongType(t *testing.T) {
	msg := &Message{Header: Header{Type: TypeHello}}
	if _, err := msg.DecodeFlowMod(); err == nil {
		t.Error("DecodeFlowMod on HELLO should fail")
	}
	if _, err := msg.DecodePacketIn(); err == nil {
		t.Error("DecodePacketIn on HELLO should fail")
	}
	if _, err := msg.DecodePacketOut(); err == nil {
		t.Error("DecodePacketOut on HELLO should fail")
	}
	if _, err := msg.DecodeFeaturesReply(); err == nil {
		t.Error("DecodeFeaturesReply on HELLO should fail")
	}
}

func TestBarrier(t *testing.T) {
	lnA, lnB := net.Pipe()
	ctrl, sw := NewConn(lnA), NewConn(lnB)
	defer ctrl.Close()
	defer sw.Close()
	xidCh := make(chan uint32, 1)
	go func() {
		xid, _ := ctrl.SendBarrier()
		xidCh <- xid
	}()
	msg, err := sw.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != TypeBarrierRequest {
		t.Fatalf("got %v", msg.Type)
	}
	go sw.Send(Encode(TypeBarrierReply, msg.XID, nil))
	reply, err := ctrl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sentXID := <-xidCh
	if reply.Type != TypeBarrierReply || reply.XID != sentXID {
		t.Errorf("reply = %+v, want xid %d", reply.Header, sentXID)
	}
}
