// Quickstart: the smallest complete SDX.
//
// Three ASes peer at the exchange. AS A writes the paper's application-
// specific peering policy — web traffic via AS B, HTTPS via AS C — and
// everything else follows BGP defaults. The program shows each stage of the
// pipeline: the routes the route server collected, the forwarding
// equivalence classes (prefix groups) the controller computed, the flow
// rules it compiled, and finally live packets crossing the software fabric.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/netip"

	"sdx"
)

func main() {
	rs := sdx.NewRouteServer()
	ctrl := sdx.NewController(rs, sdx.DefaultOptions())

	// --- Topology: A on port 1, B on port 2, C on port 3. -----------------
	parts := []sdx.Participant{
		{ID: "A", AS: 65001, Ports: []sdx.Port{{
			Number: 1, MAC: sdx.MustParseMAC("02:0a:00:00:00:01"),
			RouterIP: netip.MustParseAddr("172.31.0.1")}}},
		{ID: "B", AS: 65002, Ports: []sdx.Port{{
			Number: 2, MAC: sdx.MustParseMAC("02:0b:00:00:00:01"),
			RouterIP: netip.MustParseAddr("172.31.0.2")}}},
		{ID: "C", AS: 65003, Ports: []sdx.Port{{
			Number: 3, MAC: sdx.MustParseMAC("02:0c:00:00:00:01"),
			RouterIP: netip.MustParseAddr("172.31.0.3")}}},
	}
	for _, p := range parts {
		if err := ctrl.AddParticipant(p); err != nil {
			log.Fatal(err)
		}
	}

	// --- Routes: B and C both announce the content prefix. ----------------
	content := netip.MustParsePrefix("93.184.0.0/16")
	advertise(rs, "B", 65002, "172.31.0.2", content, 2)
	advertise(rs, "C", 65003, "172.31.0.3", content, 1) // shorter path: default

	// --- A's policy: match(dstport=80) >> fwd(B) + match(dstport=443) >> fwd(C)
	aPolicy := sdx.Par(
		sdx.SeqOf(sdx.MatchPolicy(sdx.MatchAll.DstPort(80)), ctrl.FwdTo("B")),
		sdx.SeqOf(sdx.MatchPolicy(sdx.MatchAll.DstPort(443)), ctrl.FwdTo("C")),
	)
	if err := ctrl.SetPolicies("A", nil, aPolicy); err != nil {
		log.Fatal(err)
	}

	// --- Compile. ----------------------------------------------------------
	res, err := ctrl.Compile()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Route server view ==")
	for _, prefix := range rs.Prefixes() {
		best, _ := rs.BestFor("A", prefix)
		fmt.Printf("  %v: best for A via %v (AS path %s)\n",
			prefix, best.Attrs.NextHop, best.Attrs.ASPathString())
	}

	fmt.Println("\n== Forwarding equivalence classes ==")
	for i, f := range res.FECs {
		fmt.Printf("  group %d: %v  VNH=%v  VMAC=%v  default via %v\n",
			i+1, f.Prefixes, f.VNH, f.VMAC, f.First)
	}

	fmt.Printf("\n== Compiled flow rules (%d) ==\n", len(res.Rules))
	for i, r := range res.Rules {
		fmt.Printf("  %2d: %v\n", i, r)
	}

	// --- Deploy on the software fabric and send traffic. -------------------
	sw := sdx.NewSwitch(1)
	for _, portNo := range []uint16{1, 2, 3} {
		p := portNo
		sw.AttachPort(p, func(frame []byte) {
			pkt, _ := sdx.DecodePacket(frame)
			fmt.Printf("  port %d received: %v\n", p, pkt)
		})
	}
	if err := sdx.InstallBase(sw, res); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== Live traffic ==")
	tag, _ := ctrl.VMACFor(content)
	client := sdx.MustParseMAC("02:99:00:00:00:01")
	dst := netip.MustParseAddr("93.184.216.34")
	src := netip.MustParseAddr("8.8.8.8")
	for _, dstPort := range []uint16{80, 443, 22} {
		fmt.Printf("A sends dstport %d:\n", dstPort)
		frame := sdx.NewUDPPacket(client, tag, src, dst, 40000, dstPort, []byte("hi")).Serialize()
		if err := sw.Inject(1, frame); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nweb went to B (port 2), https to C (port 3), the rest followed")
	fmt.Println("BGP's default — C, the shorter AS path — exactly as §3.1 describes.")
}

func advertise(rs *sdx.RouteServer, id sdx.ID, as uint32, router string, prefix netip.Prefix, pathLen int) {
	asns := make([]uint32, pathLen)
	for i := range asns {
		asns[i] = as + uint32(i)
	}
	_, err := rs.Advertise(id, sdx.BGPRoute{
		Prefix: prefix,
		Attrs: sdx.InternPathAttrs(sdx.PathAttrs{
			NextHop: netip.MustParseAddr(router),
			ASPath:  []sdx.ASPathSegment{{Type: 2, ASNs: asns}},
		}),
		PeerAS: as,
		PeerID: netip.MustParseAddr(router),
	})
	if err != nil {
		log.Fatal(err)
	}
}
