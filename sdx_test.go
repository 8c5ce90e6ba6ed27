package sdx

// Façade-level tests: the full public API driven the way a downstream user
// would, without touching internal packages.

import (
	"net/netip"
	"testing"
)

func facadeExchange(t *testing.T) (*Controller, *RouteServer) {
	t.Helper()
	rs := NewRouteServer()
	ctrl := NewController(rs, DefaultOptions())
	for _, p := range []Participant{
		{ID: "A", AS: 65001, Ports: []Port{{Number: 1, MAC: MustParseMAC("02:0a:00:00:00:01"),
			RouterIP: netip.MustParseAddr("172.31.0.1")}}},
		{ID: "B", AS: 65002, Ports: []Port{{Number: 2, MAC: MustParseMAC("02:0b:00:00:00:01"),
			RouterIP: netip.MustParseAddr("172.31.0.2")}}},
		{ID: "C", AS: 65003, Ports: []Port{{Number: 3, MAC: MustParseMAC("02:0c:00:00:00:01"),
			RouterIP: netip.MustParseAddr("172.31.0.3")}}},
	} {
		if err := ctrl.AddParticipant(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, adv := range []struct {
		id      ID
		as      uint32
		router  string
		pathLen int
	}{{"B", 65002, "172.31.0.2", 2}, {"C", 65003, "172.31.0.3", 1}} {
		asns := make([]uint32, adv.pathLen)
		for i := range asns {
			asns[i] = adv.as
		}
		if _, err := rs.Advertise(adv.id, BGPRoute{
			Prefix: netip.MustParsePrefix("93.184.0.0/16"),
			Attrs: InternPathAttrs(PathAttrs{
				NextHop: netip.MustParseAddr(adv.router),
				ASPath:  []ASPathSegment{{Type: 2, ASNs: asns}},
			}),
			PeerAS: adv.as,
			PeerID: netip.MustParseAddr(adv.router),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ctrl, rs
}

func TestFacadeQuickstartFlow(t *testing.T) {
	ctrl, _ := facadeExchange(t)
	pol, err := ParsePolicy(
		`(match(dstport=80) >> fwd(B)) + (match(dstport=443) >> fwd(C))`,
		map[string]Policy{"B": ctrl.FwdTo("B"), "C": ctrl.FwdTo("C")})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SetPolicies("A", nil, pol); err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrefixGroups != 1 || len(res.Rules) == 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}

	sw := NewSwitch(1)
	delivered := map[uint16]int{}
	for _, n := range []uint16{1, 2, 3} {
		port := n
		sw.AttachPort(port, func([]byte) { delivered[port]++ })
	}
	if err := InstallBase(sw, res); err != nil {
		t.Fatal(err)
	}
	tag, ok := ctrl.VMACFor(netip.MustParsePrefix("93.184.0.0/16"))
	if !ok {
		t.Fatal("no tag for the content prefix")
	}
	client := MustParseMAC("02:99:00:00:00:01")
	src := netip.MustParseAddr("8.8.8.8")
	dst := netip.MustParseAddr("93.184.216.34")
	for _, dstPort := range []uint16{80, 443, 22} {
		frame := NewUDPPacket(client, tag, src, dst, 4000, dstPort, nil).Serialize()
		if err := sw.Inject(1, frame); err != nil {
			t.Fatal(err)
		}
	}
	if delivered[2] != 1 || delivered[3] != 2 {
		t.Errorf("delivery = %v; want 1 on B, 2 on C", delivered)
	}
}

func TestFacadePolicyAlgebra(t *testing.T) {
	pol := Par(
		SeqOf(MatchPolicy(MatchAll.DstPort(80)), Fwd(2)),
		SeqOf(MatchPolicy(MatchAll.DstPort(443)), Fwd(3)),
	)
	cl := CompilePolicy(WithDefault(pol, Fwd(9)))
	pkt := LocatedPacket{Port: 1, EthType: 0x0800,
		SrcIP: netip.MustParseAddr("1.1.1.1"), DstIP: netip.MustParseAddr("2.2.2.2"),
		Proto: 6, DstPort: 22}
	if out := cl.Eval(pkt); len(out) != 1 || out[0].Port != 9 {
		t.Errorf("default -> %+v", out)
	}

	ite := IfThenElse(AllOf(MatchPred(MatchAll.DstPort(80)), Not(MatchPred(MatchAll.Proto(17)))),
		Fwd(5), DropPolicy())
	cl2 := CompilePolicy(ite)
	tcp := pkt
	tcp.DstPort = 80
	if out := cl2.Eval(tcp); len(out) != 1 || out[0].Port != 5 {
		t.Errorf("tcp/80 -> %+v", out)
	}
	udp := tcp
	udp.Proto = 17
	if out := cl2.Eval(udp); len(out) != 0 {
		t.Errorf("udp/80 should drop: %+v", out)
	}
	if out := CompilePolicy(PassPolicy()).Eval(pkt); len(out) != 1 {
		t.Error("PassPolicy should pass")
	}
	if p := AnyOf(MatchPred(MatchAll.DstPort(80))); !p.Matches(tcp) {
		t.Error("AnyOf singleton broken")
	}
}

func TestFacadeFastPathAndFabric(t *testing.T) {
	ctrl, rs := facadeExchange(t)
	if err := ctrl.SetPolicies("A", nil,
		SeqOf(MatchPolicy(MatchAll.DstPort(80)), ctrl.FwdTo("B"))); err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Compile()
	if err != nil {
		t.Fatal(err)
	}

	// Two-switch fabric via the façade.
	fab := NewFabric()
	fab.AddSwitch(NewSwitch(1))
	fab.AddSwitch(NewSwitch(2))
	if err := fab.Connect(1, 100, 2, 100); err != nil {
		t.Fatal(err)
	}
	got := map[uint16]int{}
	macs := map[uint16]MAC{
		1: MustParseMAC("02:0a:00:00:00:01"),
		2: MustParseMAC("02:0b:00:00:00:01"),
		3: MustParseMAC("02:0c:00:00:00:01"),
	}
	for g, loc := range map[uint16]struct {
		dpid  uint64
		local uint16
	}{1: {1, 1}, 2: {1, 2}, 3: {2, 1}} {
		global := g
		if err := fab.MapPort(global, loc.dpid, loc.local, macs[global],
			func([]byte) { got[global]++ }); err != nil {
			t.Fatal(err)
		}
	}
	if err := fab.InstallGlobal(res.Rules); err != nil {
		t.Fatal(err)
	}
	tag, _ := ctrl.VMACFor(netip.MustParsePrefix("93.184.0.0/16"))
	frame := NewUDPPacket(MustParseMAC("02:99:00:00:00:01"), tag,
		netip.MustParseAddr("8.8.8.8"), netip.MustParseAddr("93.184.1.1"),
		4000, 22, nil).Serialize()
	if err := fab.Inject(1, frame); err != nil {
		t.Fatal(err)
	}
	if got[3] != 1 {
		t.Fatalf("default traffic should cross the trunk to C: %v", got)
	}

	// Fast path through the façade.
	touched, err := rs.Withdraw("C", netip.MustParsePrefix("93.184.0.0/16"))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := ctrl.FastReact(touched)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.NewFECs) != 1 || len(fast.Rules) == 0 {
		t.Fatalf("fast path = %+v", fast)
	}
}

func TestFacadeCommunities(t *testing.T) {
	rs := NewRouteServer()
	rs.SetRouteExportPolicy(CommunityExportPolicy(65000))
	for _, id := range []ID{"A", "B"} {
		as := uint32(65001)
		if id == "B" {
			as = 65002
		}
		if err := rs.AddParticipant(id, as); err != nil {
			t.Fatal(err)
		}
	}
	route := BGPRoute{
		Prefix: netip.MustParsePrefix("10.0.0.0/8"),
		Attrs: InternPathAttrs(PathAttrs{
			NextHop:     netip.MustParseAddr("192.0.2.1"),
			ASPath:      []ASPathSegment{{Type: 2, ASNs: []uint32{65002}}},
			Communities: []uint32{Community(0, 65001)}, // hide from A
		}),
		PeerAS: 65002,
		PeerID: netip.MustParseAddr("10.0.0.2"),
	}
	if _, err := rs.Advertise("B", route); err != nil {
		t.Fatal(err)
	}
	if _, ok := rs.BestFor("A", netip.MustParsePrefix("10.0.0.0/8")); ok {
		t.Error("community-blocked route leaked to A")
	}
}

func TestFacadePacketHelpers(t *testing.T) {
	mac, err := ParseMAC("02:00:00:00:00:01")
	if err != nil {
		t.Fatal(err)
	}
	frame := NewUDPPacket(mac, mac, netip.MustParseAddr("1.1.1.1"),
		netip.MustParseAddr("2.2.2.2"), 1, 2, []byte("hi")).Serialize()
	pkt, err := DecodePacket(frame)
	if err != nil || pkt.DstPort() != 2 {
		t.Fatalf("decode = %v, %v", pkt, err)
	}
	if EgressPort(5) <= 5 {
		t.Error("EgressPort must map into the egress space")
	}
}
