package experiments

import (
	"fmt"
	"net/netip"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/netutil"
	"sdx/internal/packet"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
)

// Fig5Sample is one point of a deployment-experiment traffic series.
type Fig5Sample struct {
	T     int // virtual seconds
	RateA float64
	RateB float64
}

// Fig5Result is a reproduced deployment experiment: the traffic series plus
// the shape assertions the paper's figure demonstrates.
type Fig5Result struct {
	Series []Fig5Sample
	// ShapeOK reports whether the traffic shifted exactly as the figure
	// shows (who carries what, before/after each event).
	ShapeOK bool
	Notes   []string
}

const fig5PacketsPerSecond = 10

// Fig5a reproduces the application-specific peering deployment (Figure 5a):
// a policy at t=565s moves port-80 traffic from AS A to AS B, and a route
// withdrawal at t=1253s moves everything back.
func Fig5a(cfg Config) (*Fig5Result, error) {
	rng := cfg.rng()
	_ = rng
	rs := routeserver.New(nil)
	ctrl := core.NewController(rs, core.DefaultOptions())
	macA := netutil.MustParseMAC("02:0a:00:00:00:01")
	macB := netutil.MustParseMAC("02:0b:00:00:00:01")
	macC := netutil.MustParseMAC("02:0c:00:00:00:01")
	for _, p := range []core.Participant{
		{ID: "A", AS: 65001, Ports: []core.Port{{Number: 1, MAC: macA, RouterIP: netip.MustParseAddr("172.31.0.1")}}},
		{ID: "B", AS: 65002, Ports: []core.Port{{Number: 2, MAC: macB, RouterIP: netip.MustParseAddr("172.31.0.2")}}},
		{ID: "C", AS: 65003, Ports: []core.Port{{Number: 3, MAC: macC, RouterIP: netip.MustParseAddr("172.31.0.3")}}},
	} {
		if err := ctrl.AddParticipant(p); err != nil {
			return nil, err
		}
	}
	aws := netip.MustParsePrefix("54.192.0.0/16")
	if _, err := rs.Advertise("A", expRoute(65001, "172.31.0.1", aws, 2)); err != nil {
		return nil, err
	}
	if _, err := rs.Advertise("B", expRoute(65002, "172.31.0.2", aws, 3)); err != nil {
		return nil, err
	}

	sw := dataplane.NewSwitch(1)
	for _, n := range []uint16{1, 2, 3} {
		sw.AttachPort(n, func([]byte) {})
	}
	compile := func() error {
		res, err := ctrl.Compile()
		if err != nil {
			return err
		}
		return core.InstallBase(sw, res)
	}
	if err := compile(); err != nil {
		return nil, err
	}

	client := netutil.MustParseMAC("02:99:00:00:00:01")
	srcIP := netip.MustParseAddr("198.51.100.7")
	dstIP := netip.MustParseAddr("54.192.10.20")
	payload := make([]byte, 1400)
	frame := func(dstPort uint16) []byte {
		dstMAC := macA
		if tag, ok := ctrl.VMACFor(aws); ok {
			dstMAC = tag
		}
		return packet.NewUDP(client, dstMAC, srcIP, dstIP, 40000, dstPort, payload).Serialize()
	}

	res := &Fig5Result{}
	var prevA, prevB uint64
	const duration, policyAt, withdrawAt = 1800, 565, 1253
	for t := 0; t < duration; t++ {
		switch t {
		case policyAt:
			pol := policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(80)), ctrl.FwdTo("B"))
			if err := ctrl.SetPolicies("C", nil, pol); err != nil {
				return nil, err
			}
			if err := compile(); err != nil {
				return nil, err
			}
		case withdrawAt:
			touched, err := rs.Withdraw("B", aws)
			if err != nil {
				return nil, err
			}
			fast, err := ctrl.FastReact(touched)
			if err != nil {
				return nil, err
			}
			if err := core.InstallFast(sw, fast); err != nil {
				return nil, err
			}
			if err := compile(); err != nil {
				return nil, err
			}
		}
		for i := 0; i < fig5PacketsPerSecond; i++ {
			for _, p := range []uint16{80, 1935, 5353} {
				if err := sw.Inject(3, frame(p)); err != nil {
					return nil, err
				}
			}
		}
		sA, _ := sw.Stats(1)
		sB, _ := sw.Stats(2)
		res.Series = append(res.Series, Fig5Sample{
			T:     t,
			RateA: mbps(sA.TxBytes - prevA),
			RateB: mbps(sB.TxBytes - prevB),
		})
		prevA, prevB = sA.TxBytes, sB.TxBytes
	}

	// Shape: before the policy everything via A; between policy and
	// withdrawal one third (port 80 of three flows) via B; after the
	// withdrawal everything via A again.
	before := res.Series[policyAt-1]
	during := res.Series[withdrawAt-1]
	after := res.Series[duration-1]
	res.ShapeOK = before.RateB == 0 && before.RateA > 0 &&
		during.RateB > 0 && during.RateA > during.RateB &&
		after.RateB == 0 && after.RateA > 0
	res.Notes = append(res.Notes,
		fmt.Sprintf("t=%d: A=%.2f B=%.2f Mbps (all default via A)", before.T, before.RateA, before.RateB),
		fmt.Sprintf("t=%d: A=%.2f B=%.2f Mbps (port-80 flow shifted to B)", during.T, during.RateA, during.RateB),
		fmt.Sprintf("t=%d: A=%.2f B=%.2f Mbps (withdrawal failed back to A)", after.T, after.RateA, after.RateB),
	)
	printFig5(cfg, "Figure 5a: application-specific peering", res)
	return res, nil
}

// Fig5b reproduces the wide-area load balancer deployment (Figure 5b): a
// remote AWS tenant's policy at t=246s splits anycast request traffic
// across two instances.
func Fig5b(cfg Config) (*Fig5Result, error) {
	rs := routeserver.New(nil)
	ctrl := core.NewController(rs, core.DefaultOptions())
	macA := netutil.MustParseMAC("02:0a:00:00:00:01")
	macB := netutil.MustParseMAC("02:0b:00:00:00:01")
	for _, p := range []core.Participant{
		{ID: "A", AS: 65001, Ports: []core.Port{{Number: 1, MAC: macA, RouterIP: netip.MustParseAddr("172.31.0.1")}}},
		{ID: "B", AS: 65002, Ports: []core.Port{{Number: 2, MAC: macB, RouterIP: netip.MustParseAddr("172.31.0.2")}}},
		{ID: "AWS", AS: 65100},
	} {
		if err := ctrl.AddParticipant(p); err != nil {
			return nil, err
		}
	}
	anycast := netip.MustParsePrefix("74.125.1.0/24")
	service := netip.MustParseAddr("74.125.1.1")
	instance1 := netip.MustParseAddr("192.168.144.32")
	instance2 := netip.MustParseAddr("192.168.184.53")
	if _, err := rs.Advertise("AWS", bgp.Route{
		Prefix: anycast,
		Attrs: bgp.Intern(bgp.PathAttrs{
			NextHop: netip.MustParseAddr("172.31.0.99"),
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65100}}},
		}),
		PeerAS: 65100,
	}); err != nil {
		return nil, err
	}

	deliver := func(inst netip.Addr) policy.Policy {
		return policy.SeqOf(policy.ModPolicy(policy.Identity.SetDstIP(inst)), ctrl.DeliverTo("B"))
	}
	toService := policy.MatchPolicy(policy.MatchAll.DstIP(netip.PrefixFrom(service, 32)))
	if err := ctrl.SetPolicies("AWS", policy.SeqOf(toService, deliver(instance1)), nil); err != nil {
		return nil, err
	}

	sw := dataplane.NewSwitch(1)
	sw.AttachPort(1, func([]byte) {})
	var to1, to2 uint64
	sw.AttachPort(2, func(frame []byte) {
		pkt, err := packet.Decode(frame)
		if err != nil {
			return
		}
		switch pkt.DstIP() {
		case instance1:
			to1 += uint64(len(frame))
		case instance2:
			to2 += uint64(len(frame))
		}
	})
	compile := func() error {
		res, err := ctrl.Compile()
		if err != nil {
			return err
		}
		return core.InstallBase(sw, res)
	}
	if err := compile(); err != nil {
		return nil, err
	}

	client1 := netip.MustParseAddr("204.57.0.67")
	client2 := netip.MustParseAddr("41.0.0.9")
	clientMAC := netutil.MustParseMAC("02:99:00:00:00:01")
	payload := make([]byte, 1400)
	frame := func(src netip.Addr) ([]byte, error) {
		tag, ok := ctrl.VMACFor(anycast)
		if !ok {
			return nil, fmt.Errorf("experiments: anycast prefix lost its tag")
		}
		return packet.NewUDP(clientMAC, tag, src, service, 40000, 80, payload).Serialize(), nil
	}

	res := &Fig5Result{}
	var prev1, prev2 uint64
	const duration, policyAt = 600, 246
	for t := 0; t < duration; t++ {
		if t == policyAt {
			lb := policy.SeqOf(toService,
				policy.IfThenElse(
					&policy.MatchPred{Match: policy.MatchAll.SrcIP(netip.PrefixFrom(client1, 32))},
					deliver(instance2),
					deliver(instance1),
				),
			)
			if err := ctrl.SetPolicies("AWS", lb, nil); err != nil {
				return nil, err
			}
			if err := compile(); err != nil {
				return nil, err
			}
		}
		for i := 0; i < fig5PacketsPerSecond; i++ {
			for _, src := range []netip.Addr{client1, client2} {
				f, err := frame(src)
				if err != nil {
					return nil, err
				}
				if err := sw.Inject(1, f); err != nil {
					return nil, err
				}
			}
		}
		res.Series = append(res.Series, Fig5Sample{
			T: t, RateA: mbps(to1 - prev1), RateB: mbps(to2 - prev2),
		})
		prev1, prev2 = to1, to2
	}

	before := res.Series[policyAt-1]
	after := res.Series[duration-1]
	res.ShapeOK = before.RateB == 0 && before.RateA > 0 &&
		after.RateA > 0 && after.RateB > 0 &&
		nearlyEqual(after.RateA, after.RateB)
	res.Notes = append(res.Notes,
		fmt.Sprintf("t=%d: inst1=%.2f inst2=%.2f Mbps (all on instance 1)", before.T, before.RateA, before.RateB),
		fmt.Sprintf("t=%d: inst1=%.2f inst2=%.2f Mbps (split after remote policy)", after.T, after.RateA, after.RateB),
	)
	printFig5(cfg, "Figure 5b: wide-area load balance", res)
	return res, nil
}

func printFig5(cfg Config, title string, res *Fig5Result) {
	cfg.printf("%s\n", title)
	for _, n := range res.Notes {
		cfg.printf("  %s\n", n)
	}
	cfg.printf("  shape matches the paper's figure: %v\n", res.ShapeOK)
}

func mbps(bytes uint64) float64 { return float64(bytes) * 8 / 1e6 }

func nearlyEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 0.05*(a+b)
}

func expRoute(as uint32, router string, prefix netip.Prefix, pathLen int) bgp.Route {
	asns := make([]uint32, pathLen)
	for i := range asns {
		asns[i] = as + uint32(i)
	}
	return bgp.Route{
		Prefix: prefix,
		Attrs: bgp.Intern(bgp.PathAttrs{
			NextHop: netip.MustParseAddr(router),
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		}),
		PeerAS: as,
		PeerID: netip.MustParseAddr(router),
	}
}
