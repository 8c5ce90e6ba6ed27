// Application-specific peering: the paper's first deployment experiment
// (Figures 4a and 5a).
//
// AS A and AS B both reach an AWS-hosted prefix; AS C hosts a client that
// sends steady UDP flows toward it. The run reproduces the experiment's
// event sequence in virtual time:
//
//	t=0s      traffic starts; everything follows BGP defaults via AS A
//	t=565s    AS C installs an application-specific peering policy:
//	          port-80 traffic shifts to AS B
//	t=1253s   AS B withdraws its route (an emulated failure): the SDX
//	          recompiles and ALL traffic returns to AS A
//
// The program prints a traffic-rate table per upstream — the same series
// Figure 5a plots — by reading the fabric's port counters each virtual
// second.
//
// Run with: go run ./examples/appspecificpeering
package main

import (
	"fmt"
	"log"
	"net/netip"

	"sdx"
)

const (
	portA      = 1 // AS A's router (via Wisconsin in the paper)
	portB      = 2 // AS B's router (via Clemson)
	portC      = 3 // AS C, the client's ISP
	duration   = 1800
	policyAt   = 565
	withdrawAt = 1253
	// Three 1 Mbps UDP flows, as in the deployment: ~83 packets/s of 1500 B
	// each; we scale to 10 packets per virtual second per flow for speed.
	packetsPerSecond = 10
)

func main() {
	rs := sdx.NewRouteServer()
	ctrl := sdx.NewController(rs, sdx.DefaultOptions())

	macA := sdx.MustParseMAC("02:0a:00:00:00:01")
	macB := sdx.MustParseMAC("02:0b:00:00:00:01")
	macC := sdx.MustParseMAC("02:0c:00:00:00:01")
	for _, p := range []sdx.Participant{
		{ID: "A", AS: 65001, Ports: []sdx.Port{{Number: portA, MAC: macA, RouterIP: netip.MustParseAddr("172.31.0.1")}}},
		{ID: "B", AS: 65002, Ports: []sdx.Port{{Number: portB, MAC: macB, RouterIP: netip.MustParseAddr("172.31.0.2")}}},
		{ID: "C", AS: 65003, Ports: []sdx.Port{{Number: portC, MAC: macC, RouterIP: netip.MustParseAddr("172.31.0.3")}}},
	} {
		if err := ctrl.AddParticipant(p); err != nil {
			log.Fatal(err)
		}
	}

	aws := netip.MustParsePrefix("54.192.0.0/16")
	advertise(rs, "A", 65001, "172.31.0.1", aws, 2)
	advertise(rs, "B", 65002, "172.31.0.2", aws, 3) // longer path: backup

	sw := sdx.NewSwitch(1)
	for _, n := range []uint16{portA, portB, portC} {
		sw.AttachPort(n, func([]byte) {})
	}
	compile := func() {
		res, err := ctrl.Compile()
		if err != nil {
			log.Fatal(err)
		}
		if err := sdx.InstallBase(sw, res); err != nil {
			log.Fatal(err)
		}
	}
	compile()

	client := sdx.MustParseMAC("02:99:00:00:00:01")
	srcIP := netip.MustParseAddr("198.51.100.7")
	dstIP := netip.MustParseAddr("54.192.10.20")
	payload := make([]byte, 1400)

	frame := func(dstPort uint16) []byte {
		dstMAC := macA // plain next-hop MAC when the prefix is untagged
		if tag, ok := ctrl.VMACFor(aws); ok {
			dstMAC = tag
		}
		return sdx.NewUDPPacket(client, dstMAC, srcIP, dstIP, 40000, dstPort, payload).Serialize()
	}

	fmt.Println("time(s)  via-AS-A(Mbps)  via-AS-B(Mbps)  event")
	var prevA, prevB uint64
	for t := 0; t < duration; t++ {
		event := ""
		switch t {
		case policyAt:
			// AS C: port-80 traffic via B, rest untouched.
			pol := sdx.SeqOf(sdx.MatchPolicy(sdx.MatchAll.DstPort(80)), ctrl.FwdTo("B"))
			if err := ctrl.SetPolicies("C", nil, pol); err != nil {
				log.Fatal(err)
			}
			compile()
			event = "<- application-specific peering policy installed"
		case withdrawAt:
			touched, err := rs.Withdraw("B", aws)
			if err != nil {
				log.Fatal(err)
			}
			// Quick stage first (sub-second), then the background pass.
			fast, err := ctrl.FastReact(touched)
			if err != nil {
				log.Fatal(err)
			}
			if err := sdx.InstallFast(sw, fast); err != nil {
				log.Fatal(err)
			}
			compile()
			event = "<- AS B withdraws the route; traffic fails back to AS A"
		}

		// Three flows: web (80), video (1935), dns-ish (5353).
		for i := 0; i < packetsPerSecond; i++ {
			for _, p := range []uint16{80, 1935, 5353} {
				if err := sw.Inject(portC, frame(p)); err != nil {
					log.Fatal(err)
				}
			}
		}

		if t%60 == 0 || event != "" {
			statsA, _ := sw.Stats(portA)
			statsB, _ := sw.Stats(portB)
			rateA := mbps(statsA.TxBytes - prevA)
			rateB := mbps(statsB.TxBytes - prevB)
			fmt.Printf("%7d  %14.2f  %14.2f  %s\n", t, rateA, rateB, event)
		}
		sA, _ := sw.Stats(portA)
		sB, _ := sw.Stats(portB)
		prevA, prevB = sA.TxBytes, sB.TxBytes
	}

	fmt.Println("\nShape check (paper Fig. 5a): one third of the traffic (port 80)")
	fmt.Println("moves to AS B after the policy lands, and everything returns to")
	fmt.Println("AS A after the withdrawal — the data plane stayed in sync with BGP.")
}

func mbps(bytes uint64) float64 { return float64(bytes) * 8 / 1e6 }

func advertise(rs *sdx.RouteServer, id sdx.ID, as uint32, router string, prefix netip.Prefix, pathLen int) {
	asns := make([]uint32, pathLen)
	for i := range asns {
		asns[i] = as + uint32(i)
	}
	if _, err := rs.Advertise(id, sdx.BGPRoute{
		Prefix: prefix,
		Attrs: sdx.InternPathAttrs(sdx.PathAttrs{
			NextHop: netip.MustParseAddr(router),
			ASPath:  []sdx.ASPathSegment{{Type: 2, ASNs: asns}},
		}),
		PeerAS: as,
		PeerID: netip.MustParseAddr(router),
	}); err != nil {
		log.Fatal(err)
	}
}
