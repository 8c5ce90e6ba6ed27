package sdx

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/packet"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
)

// TestLiveExchange wires every subsystem together the way the daemons do —
// a route server terminating real BGP sessions over TCP, a controller
// programming a fabric switch over a real OpenFlow TCP connection, border
// routers announcing and withdrawing prefixes, the ARP responder answering
// for virtual next hops — and verifies packets land where the paper says.
func TestLiveExchange(t *testing.T) {
	macA := netutil.MustParseMAC("02:0a:00:00:00:01")
	macB := netutil.MustParseMAC("02:0b:00:00:00:01")
	macC := netutil.MustParseMAC("02:0c:00:00:00:01")
	ipA := netip.MustParseAddr("172.31.0.1")
	ipB := netip.MustParseAddr("172.31.0.2")
	ipC := netip.MustParseAddr("172.31.0.3")

	// --- Controller + route server --------------------------------------
	rs := routeserver.New(nil)
	ctrl := core.NewController(rs, core.DefaultOptions())
	for _, p := range []core.Participant{
		{ID: "A", AS: 65001, Ports: []core.Port{{Number: 1, MAC: macA, RouterIP: ipA}}},
		{ID: "B", AS: 65002, Ports: []core.Port{{Number: 2, MAC: macB, RouterIP: ipB}}},
		{ID: "C", AS: 65003, Ports: []core.Port{{Number: 3, MAC: macC, RouterIP: ipC}}},
	} {
		if err := ctrl.AddParticipant(p); err != nil {
			t.Fatal(err)
		}
	}
	// A: application-specific peering.
	aOut := policy.Par(
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(80)), ctrl.FwdTo("B")),
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(443)), ctrl.FwdTo("C")),
	)
	if err := ctrl.SetPolicies("A", nil, aOut); err != nil {
		t.Fatal(err)
	}

	speaker := bgp.NewSpeaker(bgp.SessionConfig{LocalAS: 65000, LocalID: netip.MustParseAddr("10.0.0.100")})
	fe := routeserver.NewFrontend(rs, speaker)
	fe.NextHop = ctrl.NextHopFor

	// Fabric state shared between the BGP-change handler and the OF loop.
	var (
		mu     sync.Mutex
		ofConn *openflow.Conn
	)
	recompile := func() error {
		res, err := ctrl.Compile()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if ofConn != nil {
			return core.PushBase(ofConn, res)
		}
		return nil
	}
	fe.OnPrefixes = func(touched []netip.Prefix) {
		fast, err := ctrl.FastReact(touched)
		if err != nil {
			t.Errorf("fast path: %v", err)
			return
		}
		mu.Lock()
		conn := ofConn
		mu.Unlock()
		if conn != nil {
			if err := core.PushFast(conn, fast); err != nil {
				t.Errorf("pushing fast rules: %v", err)
			}
		}
	}
	for ip, id := range map[netip.Addr]routeserver.ID{ipA: "A", ipB: "B", ipC: "C"} {
		if err := fe.RegisterPeer(ip, id); err != nil {
			t.Fatal(err)
		}
	}
	bgpAddr, err := speaker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()

	// --- Switch over a real OpenFlow TCP connection ----------------------
	sw := dataplane.NewSwitch(0xabc)
	sinks := map[uint16]*frameCollector{}
	for _, n := range []uint16{1, 2, 3} {
		c := &frameCollector{}
		sinks[n] = c
		sw.AttachPort(n, c.add)
	}
	ofLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ofLn.Close()
	go func() { // switch side dials like sdx-switch
		conn, err := net.Dial("tcp", ofLn.Addr().String())
		if err != nil {
			return
		}
		sw.ServeController(conn)
	}()
	raw, err := ofLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn := openflow.NewConn(raw)
	features, err := conn.HandshakeController()
	if err != nil {
		t.Fatal(err)
	}
	if features.DatapathID != 0xabc {
		t.Fatalf("dpid = %#x", features.DatapathID)
	}
	mu.Lock()
	ofConn = conn
	mu.Unlock()
	// Controller-side receive loop: ARP responder + barrier sink.
	barriers := make(chan uint32, 64)
	go func() {
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			switch msg.Type {
			case openflow.TypePacketIn:
				pi, err := msg.DecodePacketIn()
				if err != nil {
					continue
				}
				if po, ok := ctrl.HandlePacketIn(pi); ok {
					conn.SendPacketOut(po)
				}
			case openflow.TypeBarrierReply:
				barriers <- msg.XID
			}
		}
	}()

	// --- Border routers over live BGP -----------------------------------
	prefix := netip.MustParsePrefix("93.184.0.0/16")
	type client struct {
		speaker *bgp.Speaker
		peer    *bgp.Peer
		mu      sync.Mutex
		routes  map[netip.Prefix]bgp.PathAttrs
	}
	dial := func(as uint32, id netip.Addr) *client {
		c := &client{routes: make(map[netip.Prefix]bgp.PathAttrs)}
		c.speaker = bgp.NewSpeaker(bgp.SessionConfig{LocalAS: as, LocalID: id})
		c.speaker.OnUpdate = func(_ *bgp.Peer, u *bgp.Update) {
			c.mu.Lock()
			defer c.mu.Unlock()
			for _, w := range u.Withdrawn {
				delete(c.routes, w)
			}
			for _, n := range u.NLRI {
				c.routes[n] = u.Attrs
			}
		}
		peer, err := c.speaker.Dial(bgpAddr.String())
		if err != nil {
			t.Fatal(err)
		}
		c.peer = peer
		t.Cleanup(c.speaker.Close)
		return c
	}
	a := dial(65001, ipA)
	b := dial(65002, ipB)
	cc := dial(65003, ipC)

	// Let the route server register all three sessions before any
	// announcement, so no client needs the late-joiner catch-up (whose
	// ordering against concurrent updates is unsynchronized, as in BGP).
	deadlineReg := time.Now().Add(3 * time.Second)
	for len(speaker.Peers()) < 3 && time.Now().Before(deadlineReg) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(speaker.Peers()); got != 3 {
		t.Fatalf("route server has %d sessions, want 3", got)
	}

	announce := func(cl *client, as uint32, nh netip.Addr, pathLen int) {
		asns := make([]uint32, pathLen)
		for i := range asns {
			asns[i] = as
		}
		if err := cl.peer.Send(&bgp.Update{
			Attrs: *bgp.Intern(bgp.PathAttrs{
				NextHop: nh,
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
			}),
			NLRI: []netip.Prefix{prefix},
		}); err != nil {
			t.Fatal(err)
		}
	}
	announce(b, 65002, ipB, 2)
	announce(cc, 65003, ipC, 1) // shorter path: C is the default

	// A learns the route with a VIRTUAL next hop (the fast path minted it).
	// Wait specifically for the re-advertisement carrying C's (best) path so
	// the interim tag from B's earlier announcement is not sampled.
	var vnh netip.Addr
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		a.mu.Lock()
		if attrs, ok := a.routes[prefix]; ok && attrs.FirstAS() == 65003 {
			vnh = attrs.NextHop
		}
		a.mu.Unlock()
		if vnh.IsValid() && vnh != ipB && vnh != ipC {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !vnh.IsValid() || vnh == ipB || vnh == ipC {
		t.Fatalf("A's next hop = %v; want a minted VNH on C's path", vnh)
	}

	// Full (background) compilation and push, then fence with a barrier.
	if err := recompile(); err != nil {
		t.Fatal(err)
	}
	waitBarrier := func() {
		t.Helper()
		select {
		case <-barriers:
		case <-time.After(3 * time.Second):
			t.Fatal("no barrier reply")
		}
	}
	waitBarrier()

	// --- ARP: A's router resolves the VNH through the fabric -------------
	req := packet.NewARPRequest(macA, ipA, vnh)
	if err := sw.Inject(1, req.Serialize()); err != nil {
		t.Fatal(err)
	}
	var vmac netutil.MAC
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if f := sinks[1].take(); f != nil {
			pkt, err := packet.Decode(f)
			if err == nil && pkt.ARP != nil && pkt.ARP.Op == packet.ARPReply && pkt.ARP.SenderIP == vnh {
				vmac = pkt.ARP.SenderMAC
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if vmac.IsZero() {
		t.Fatal("no ARP reply for the VNH")
	}
	if _, isVMAC := netutil.VMACID(vmac); !isVMAC {
		t.Fatalf("ARP answered with %v; want a virtual MAC", vmac)
	}

	// --- Data plane: policy and default forwarding -----------------------
	send := func(dstPort uint16) {
		t.Helper()
		frame := packet.NewUDP(macA, vmac,
			netip.MustParseAddr("8.8.8.8"), netip.MustParseAddr("93.184.216.34"),
			40000, dstPort, []byte("x")).Serialize()
		if err := sw.Inject(1, frame); err != nil {
			t.Fatal(err)
		}
	}
	expectOn := func(port uint16) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if f := sinks[port].take(); f != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("no frame on port %d", port)
	}
	send(80)
	expectOn(2) // policy: web via B
	send(443)
	expectOn(3) // policy: https via C
	send(22)
	expectOn(3) // default: best route via C

	// --- Withdrawal: C's route goes away; fast path shifts default to B --
	if err := cc.peer.Send(&bgp.Update{Withdrawn: []netip.Prefix{prefix}}); err != nil {
		t.Fatal(err)
	}
	// A is re-advertised a NEW virtual next hop.
	var vnh2 netip.Addr
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		a.mu.Lock()
		if attrs, ok := a.routes[prefix]; ok && attrs.NextHop != vnh {
			vnh2 = attrs.NextHop
		}
		a.mu.Unlock()
		if vnh2.IsValid() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !vnh2.IsValid() {
		t.Fatal("A was not re-advertised a fresh VNH after the withdrawal")
	}
	// Resolve the fresh tag and verify default traffic now exits via B.
	if err := sw.Inject(1, packet.NewARPRequest(macA, ipA, vnh2).Serialize()); err != nil {
		t.Fatal(err)
	}
	var vmac2 netutil.MAC
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if f := sinks[1].take(); f != nil {
			pkt, err := packet.Decode(f)
			if err == nil && pkt.ARP != nil && pkt.ARP.Op == packet.ARPReply && pkt.ARP.SenderIP == vnh2 {
				vmac2 = pkt.ARP.SenderMAC
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if vmac2.IsZero() {
		t.Fatal("no ARP reply for the fresh VNH")
	}
	frame := packet.NewUDP(macA, vmac2,
		netip.MustParseAddr("8.8.8.8"), netip.MustParseAddr("93.184.216.34"),
		40000, 22, []byte("x")).Serialize()
	if err := sw.Inject(1, frame); err != nil {
		t.Fatal(err)
	}
	expectOn(2) // default failed over to B, sub-second, via the fast path
	_ = a
}

// frameCollector is a tiny thread-safe FIFO of frames.
type frameCollector struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *frameCollector) add(f []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, append([]byte(nil), f...))
}

func (c *frameCollector) take() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.frames) == 0 {
		return nil
	}
	f := c.frames[0]
	c.frames = c.frames[1:]
	return f
}
