package core

import (
	"net/netip"
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/dataplane"
	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/packet"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
)

var (
	macA1 = netutil.MustParseMAC("02:0a:00:00:00:01")
	macB1 = netutil.MustParseMAC("02:0b:00:00:00:01")
	macB2 = netutil.MustParseMAC("02:0b:00:00:00:02")
	macC1 = netutil.MustParseMAC("02:0c:00:00:00:01")

	clientMAC = netutil.MustParseMAC("02:99:00:00:00:01")

	p1 = netip.MustParsePrefix("11.0.0.0/8")
	p2 = netip.MustParsePrefix("12.0.0.0/8")
	p3 = netip.MustParsePrefix("13.0.0.0/8")
	p4 = netip.MustParsePrefix("14.0.0.0/8")
	p5 = netip.MustParsePrefix("15.0.0.0/8")
)

func routeFrom(as uint32, routerIP string, prefix netip.Prefix, pathLen int) bgp.Route {
	asns := make([]uint32, pathLen)
	for i := range asns {
		asns[i] = as + uint32(i)
	}
	return bgp.Route{
		Prefix: prefix,
		Attrs: bgp.Intern(bgp.PathAttrs{
			NextHop: netip.MustParseAddr(routerIP),
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		}),
		PeerAS: as,
		PeerID: netip.MustParseAddr(routerIP),
	}
}

// figure1 builds the paper's Figure 1 exchange: A with an application-
// specific peering policy, B with inbound traffic engineering, C plain.
// B advertises p1,p2,p3; C advertises p1..p5. C's routes are shorter for
// p1,p2,p4,p5; B's is shorter for p3 — giving the paper's default next-hop
// split ({p1,p2,p4}→C, {p3}→B).
func figure1(t *testing.T, opts Options) *Controller {
	t.Helper()
	return figure1On(t, routeserver.New(nil), opts)
}

// figure1On is figure1 on a caller-built route server (one carrying an
// export policy, say).
func figure1On(t *testing.T, rs *routeserver.Server, opts Options) *Controller {
	t.Helper()
	c := NewController(rs, opts)

	add := func(p Participant) {
		t.Helper()
		if err := c.AddParticipant(p); err != nil {
			t.Fatal(err)
		}
	}
	add(Participant{ID: "A", AS: 65001, Ports: []Port{
		{Number: 1, MAC: macA1, RouterIP: netip.MustParseAddr("172.31.0.1")}}})
	add(Participant{ID: "B", AS: 65002, Ports: []Port{
		{Number: 2, MAC: macB1, RouterIP: netip.MustParseAddr("172.31.0.2")},
		{Number: 3, MAC: macB2, RouterIP: netip.MustParseAddr("172.31.0.3")}}})
	add(Participant{ID: "C", AS: 65003, Ports: []Port{
		{Number: 4, MAC: macC1, RouterIP: netip.MustParseAddr("172.31.0.4")}}})

	adv := func(id ID, as uint32, ip string, prefix netip.Prefix, plen int) {
		t.Helper()
		if _, err := rs.Advertise(id, routeFrom(as, ip, prefix, plen)); err != nil {
			t.Fatal(err)
		}
	}
	adv("B", 65002, "172.31.0.2", p1, 3)
	adv("B", 65002, "172.31.0.2", p2, 3)
	adv("B", 65002, "172.31.0.2", p3, 1)
	adv("C", 65003, "172.31.0.4", p1, 1)
	adv("C", 65003, "172.31.0.4", p2, 1)
	adv("C", 65003, "172.31.0.4", p3, 3)
	adv("C", 65003, "172.31.0.4", p4, 1)
	adv("A", 65001, "172.31.0.1", p5, 1)

	// A: application-specific peering (Figure 1a).
	aOut := policy.Par(
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(80)), c.FwdTo("B")),
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(443)), c.FwdTo("C")),
	)
	if err := c.SetPolicies("A", nil, aOut); err != nil {
		t.Fatal(err)
	}
	// B: inbound traffic engineering (Figure 1a).
	low := netip.MustParsePrefix("0.0.0.0/1")
	high := netip.MustParsePrefix("128.0.0.0/1")
	bIn := policy.Par(
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.SrcIP(low)), c.Deliver(2)),
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.SrcIP(high)), c.Deliver(3)),
	)
	if err := c.SetPolicies("B", bIn, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFECComputationMatchesPaper(t *testing.T) {
	c := figure1(t, DefaultOptions())
	res, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// §4.2: C' = {{p1,p2},{p3},{p4}} — three groups, p5 untouched.
	if res.Stats.PrefixGroups != 3 {
		t.Fatalf("prefix groups = %d, want 3; FECs: %+v", res.Stats.PrefixGroups, res.FECs)
	}
	byLen := map[int][][]netip.Prefix{}
	for _, f := range res.FECs {
		byLen[len(f.Prefixes)] = append(byLen[len(f.Prefixes)], f.Prefixes)
	}
	if len(byLen[2]) != 1 || len(byLen[1]) != 2 {
		t.Fatalf("group sizes wrong: %+v", byLen)
	}
	pair := byLen[2][0]
	if !((pair[0] == p1 && pair[1] == p2) || (pair[0] == p2 && pair[1] == p1)) {
		t.Errorf("two-prefix group = %v, want {p1,p2}", pair)
	}
	// p5 retains default behaviour: no FEC, no VNH.
	if _, tagged := c.VMACFor(p5); tagged {
		t.Error("p5 must not be in any equivalence class")
	}
	// Default next hops: {p1,p2} and {p4} via C; {p3} via B.
	for _, f := range res.FECs {
		switch {
		case f.Prefixes[0] == p3:
			if hop, _ := f.DefaultNextHop("A"); hop != "B" {
				t.Errorf("p3 default next hop = %v, want B", hop)
			}
		default:
			if hop, _ := f.DefaultNextHop("A"); hop != "C" {
				t.Errorf("%v default next hop = %v, want C", f.Prefixes, hop)
			}
		}
	}
}

// vmacFrame builds the frame A's border router would emit after the route
// server advertised a VNH for dst: destination MAC set to the class tag.
func vmacFrame(t *testing.T, c *Controller, srcIP, dstIP string, dstPort uint16) []byte {
	t.Helper()
	dst := netip.MustParseAddr(dstIP)
	dstMAC, ok := c.VMACFor(netip.PrefixFrom(dst, 8).Masked())
	if !ok {
		t.Fatalf("no VMAC for %v", dst)
	}
	return packet.NewUDP(clientMAC, dstMAC,
		netip.MustParseAddr(srcIP), dst, 5000, dstPort, []byte("payload")).Serialize()
}

func deployFigure1(t *testing.T, c *Controller) (*dataplane.Switch, map[uint16]*frameSink) {
	t.Helper()
	res, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sw := dataplane.NewSwitch(1)
	sinks := make(map[uint16]*frameSink)
	for _, p := range []uint16{1, 2, 3, 4} {
		s := &frameSink{}
		sinks[p] = s
		sw.AttachPort(p, s.add)
	}
	if err := InstallBase(sw, res); err != nil {
		t.Fatal(err)
	}
	return sw, sinks
}

type frameSink struct {
	frames [][]byte
}

func (s *frameSink) add(f []byte) { s.frames = append(s.frames, append([]byte(nil), f...)) }

func (s *frameSink) lastPacket(t *testing.T) *packet.Packet {
	t.Helper()
	if len(s.frames) == 0 {
		t.Fatal("sink empty")
	}
	p, err := packet.Decode(s.frames[len(s.frames)-1])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func clearSinks(sinks map[uint16]*frameSink) {
	for _, s := range sinks {
		s.frames = nil
	}
}

func onlyPort(t *testing.T, sinks map[uint16]*frameSink, want uint16) *frameSink {
	t.Helper()
	for p, s := range sinks {
		if p == want {
			if len(s.frames) != 1 {
				t.Fatalf("port %d received %d frames, want 1", p, len(s.frames))
			}
			continue
		}
		if len(s.frames) != 0 {
			t.Fatalf("port %d received %d stray frames", p, len(s.frames))
		}
	}
	return sinks[want]
}

func TestEndToEndApplicationSpecificPeering(t *testing.T) {
	c := figure1(t, DefaultOptions())
	sw, sinks := deployFigure1(t, c)

	// Web traffic to p1 goes via B; B's inbound TE sends low sources to B1
	// (port 2) and high sources to B2 (port 3).
	if err := sw.Inject(1, vmacFrame(t, c, "8.8.8.8", "11.0.0.9", 80)); err != nil {
		t.Fatal(err)
	}
	got := onlyPort(t, sinks, 2).lastPacket(t)
	if got.Eth.DstMAC != macB1 {
		t.Errorf("delivered dstmac = %v, want B1's %v", got.Eth.DstMAC, macB1)
	}
	clearSinks(sinks)

	sw.Inject(1, vmacFrame(t, c, "200.1.1.1", "11.0.0.9", 80))
	got = onlyPort(t, sinks, 3).lastPacket(t)
	if got.Eth.DstMAC != macB2 {
		t.Errorf("delivered dstmac = %v, want B2's %v", got.Eth.DstMAC, macB2)
	}
	clearSinks(sinks)

	// HTTPS to p4 goes via C (A's policy), even though p4's group tag is
	// the "via C by default" one.
	sw.Inject(1, vmacFrame(t, c, "8.8.8.8", "14.0.0.9", 443))
	got = onlyPort(t, sinks, 4).lastPacket(t)
	if got.Eth.DstMAC != macC1 {
		t.Errorf("delivered dstmac = %v, want C1's %v", got.Eth.DstMAC, macC1)
	}
}

func TestEndToEndBGPConsistency(t *testing.T) {
	c := figure1(t, DefaultOptions())
	sw, sinks := deployFigure1(t, c)

	// Web traffic to p4: B did NOT export p4, so A's fwd(B) must not apply;
	// the traffic follows the default route via C (§3.2 "forwarding only
	// along BGP-advertised paths").
	sw.Inject(1, vmacFrame(t, c, "8.8.8.8", "14.0.0.9", 80))
	onlyPort(t, sinks, 4)
}

func TestEndToEndDefaultForwarding(t *testing.T) {
	c := figure1(t, DefaultOptions())
	sw, sinks := deployFigure1(t, c)

	// Non-web traffic to p1 defaults via C.
	sw.Inject(1, vmacFrame(t, c, "8.8.8.8", "11.0.0.9", 22))
	onlyPort(t, sinks, 4)
	clearSinks(sinks)

	// Non-web traffic to p3 defaults via B (B's path is shorter for p3).
	sw.Inject(1, vmacFrame(t, c, "8.8.8.8", "13.0.0.9", 22))
	onlyPort(t, sinks, 2)
	clearSinks(sinks)

	// p5 (advertised by A) has no tag: C's router used the plain next hop,
	// so a frame from C's port carries A's real router MAC and reaches A.
	frame := packet.NewUDP(clientMAC, macA1,
		netip.MustParseAddr("8.8.8.8"), netip.MustParseAddr("15.0.0.9"),
		5000, 22, nil).Serialize()
	sw.Inject(4, frame)
	onlyPort(t, sinks, 1)
}

func TestEndToEndIsolation(t *testing.T) {
	c := figure1(t, DefaultOptions())
	sw, sinks := deployFigure1(t, c)

	// A's web policy must not apply to traffic entering on C's port: C has
	// no policy, so web traffic to p1's tag from port 4 follows C's
	// default... C's own default for the {p1,p2} group excludes C itself,
	// falling to B (the second-best advertiser).
	sw.Inject(4, vmacFrame(t, c, "8.8.8.8", "11.0.0.9", 80))
	onlyPort(t, sinks, 2) // B1: B's inbound TE applies to the low source half
}

func TestVNHAdvertisementAndARP(t *testing.T) {
	c := figure1(t, DefaultOptions())
	if _, err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	// The next-hop resolver hands out the VNH for tagged prefixes.
	route, _ := c.RouteServer().AdvertisedRoute("B", p1)
	nh := c.NextHopFor("A", p1, route)
	fec, ok := c.fecs.ByPrefix(p1)
	if !ok || nh != fec.VNH {
		t.Fatalf("NextHopFor(p1) = %v, want VNH %v", nh, fec.VNH)
	}
	// Untagged prefixes keep the original next hop.
	route5, _ := c.RouteServer().AdvertisedRoute("A", p5)
	if nh := c.NextHopFor("C", p5, route5); nh != route5.Attrs.NextHop {
		t.Errorf("NextHopFor(p5) = %v, want original %v", nh, route5.Attrs.NextHop)
	}
	// ARP for the VNH resolves to the VMAC.
	mac, ok := c.ResolveARP(fec.VNH)
	if !ok || mac != fec.VMAC {
		t.Errorf("ResolveARP(VNH) = %v, %v; want %v", mac, ok, fec.VMAC)
	}
	// Proxy ARP for router addresses.
	mac, ok = c.ResolveARP(netip.MustParseAddr("172.31.0.2"))
	if !ok || mac != macB1 {
		t.Errorf("ResolveARP(router) = %v, %v", mac, ok)
	}
	if _, ok := c.ResolveARP(netip.MustParseAddr("9.9.9.9")); ok {
		t.Error("unknown address must not resolve")
	}
}

func TestHandlePacketInARP(t *testing.T) {
	c := figure1(t, DefaultOptions())
	if _, err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	fec, _ := c.fecs.ByPrefix(p1)

	req := packet.NewARPRequest(macA1, netip.MustParseAddr("172.31.0.1"), fec.VNH)
	po, ok := c.HandlePacketIn(&openflow.PacketIn{InPort: 1, Data: req.Serialize()})
	if !ok {
		t.Fatal("ARP request for a VNH must be answered")
	}
	if len(po.Actions) != 1 || po.Actions[0].Port != 1 {
		t.Errorf("reply actions = %+v, want output on ingress port", po.Actions)
	}
	reply, err := packet.Decode(po.Data)
	if err != nil || reply.ARP == nil || reply.ARP.Op != packet.ARPReply {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	if reply.ARP.SenderMAC != fec.VMAC || reply.ARP.SenderIP != fec.VNH {
		t.Errorf("reply claims %v at %v, want %v at %v",
			reply.ARP.SenderIP, reply.ARP.SenderMAC, fec.VNH, fec.VMAC)
	}
	if reply.Eth.DstMAC != macA1 {
		t.Errorf("reply addressed to %v, want requester", reply.Eth.DstMAC)
	}

	// Non-ARP and unanswerable requests produce nothing.
	udp := packet.NewUDP(macA1, macB1, netip.MustParseAddr("1.1.1.1"),
		netip.MustParseAddr("2.2.2.2"), 1, 2, nil)
	if _, ok := c.HandlePacketIn(&openflow.PacketIn{InPort: 1, Data: udp.Serialize()}); ok {
		t.Error("UDP packet-in must not be answered")
	}
	unknown := packet.NewARPRequest(macA1, netip.MustParseAddr("172.31.0.1"),
		netip.MustParseAddr("9.9.9.9"))
	if _, ok := c.HandlePacketIn(&openflow.PacketIn{InPort: 1, Data: unknown.Serialize()}); ok {
		t.Error("unknown ARP target must not be answered")
	}
}

func TestNaiveModeEquivalence(t *testing.T) {
	// With VNH encoding disabled, policies carry raw prefix filters and the
	// routers use real next-hop MACs. Forwarding outcomes must agree for
	// policy traffic.
	c := figure1(t, Options{VNHEncoding: false, VNHPool: netip.MustParsePrefix("172.16.0.0/12")})
	res, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrefixGroups != 0 {
		t.Fatalf("naive mode built %d groups", res.Stats.PrefixGroups)
	}
	sw := dataplane.NewSwitch(1)
	sinks := make(map[uint16]*frameSink)
	for _, p := range []uint16{1, 2, 3, 4} {
		s := &frameSink{}
		sinks[p] = s
		sw.AttachPort(p, s.add)
	}
	if err := InstallBase(sw, res); err != nil {
		t.Fatal(err)
	}
	// Without VNHs, A's router addresses frames to the chosen next hop's
	// real MAC. A's best for p1 is C.
	frame := packet.NewUDP(clientMAC, macC1,
		netip.MustParseAddr("8.8.8.8"), netip.MustParseAddr("11.0.0.9"),
		5000, 80, nil).Serialize()
	sw.Inject(1, frame)
	// Policy overrides to B; B's TE delivers low sources on port 2.
	onlyPort(t, sinks, 2)
}

func TestCompileStatsUseOptimizations(t *testing.T) {
	c := figure1(t, DefaultOptions())
	res, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DisjointCat == 0 {
		t.Error("isolated participant policies should use disjoint concatenation")
	}
	if res.Stats.FlowRules == 0 || res.Stats.FlowRules != len(res.Rules) {
		t.Errorf("flow rules = %d (len %d)", res.Stats.FlowRules, len(res.Rules))
	}
}

func TestAddParticipantValidation(t *testing.T) {
	rs := routeserver.New(nil)
	c := NewController(rs, DefaultOptions())
	ok := Participant{ID: "A", AS: 1, Ports: []Port{{Number: 1, MAC: macA1}}}
	if err := c.AddParticipant(ok); err != nil {
		t.Fatal(err)
	}
	if err := c.AddParticipant(ok); err == nil {
		t.Error("duplicate ID should fail")
	}
	if err := c.AddParticipant(Participant{ID: "B", AS: 2,
		Ports: []Port{{Number: 1, MAC: macB1}}}); err == nil {
		t.Error("duplicate port number should fail")
	}
	if err := c.AddParticipant(Participant{ID: "C", AS: 3,
		Ports: []Port{{Number: 0x4001, MAC: macC1}}}); err == nil {
		t.Error("port outside the physical range should fail")
	}
	if err := c.SetPolicies("Z", nil, nil); err == nil {
		t.Error("SetPolicies for unknown participant should fail")
	}
}

func TestRemoteParticipant(t *testing.T) {
	// A remote participant has no ports; its inbound policy still shapes
	// traffic directed at its virtual switch (wide-area LB shape).
	c := figure1(t, DefaultOptions())
	if err := c.AddParticipant(Participant{ID: "D", AS: 65004}); err != nil {
		t.Fatal(err)
	}
	anycast := netip.MustParsePrefix("74.125.1.0/24")
	if _, err := c.RouteServer().Advertise("D", bgp.Route{
		Prefix: anycast,
		Attrs: bgp.Intern(bgp.PathAttrs{
			NextHop: netip.MustParseAddr("172.31.0.99"),
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65004}}},
		}),
		PeerAS: 65004,
	}); err != nil {
		t.Fatal(err)
	}
	// D rewrites anycast traffic to a replica and delivers it out via B.
	replica := netip.MustParseAddr("74.125.224.161")
	dIn := policy.SeqOf(
		policy.MatchPolicy(policy.MatchAll.DstIP(anycast)),
		policy.ModPolicy(policy.Identity.SetDstIP(replica)),
		c.DeliverTo("B"),
	)
	if err := c.SetPolicies("D", dIn, nil); err != nil {
		t.Fatal(err)
	}
	// A's outbound policy now also needs nothing special: default traffic
	// for the anycast prefix reaches D's virtual switch.
	sw, sinks := deployFigure1(t, c)
	dst := netip.MustParseAddr("74.125.1.1")
	tag, ok := c.VMACFor(anycast)
	if !ok {
		t.Fatal("anycast prefix has no tag")
	}
	frame := packet.NewUDP(clientMAC, tag, netip.MustParseAddr("8.8.8.8"), dst,
		5000, 80, nil).Serialize()
	if err := sw.Inject(1, frame); err != nil {
		t.Fatal(err)
	}
	got := onlyPort(t, sinks, 2).lastPacket(t)
	if got.DstIP() != replica {
		t.Errorf("rewritten dst = %v, want %v", got.DstIP(), replica)
	}
	if got.Eth.DstMAC != macB1 {
		t.Errorf("delivered dstmac = %v, want B1", got.Eth.DstMAC)
	}
}
