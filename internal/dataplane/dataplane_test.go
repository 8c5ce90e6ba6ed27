package dataplane

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/packet"
	"sdx/internal/policy"
)

var (
	macA = netutil.MustParseMAC("02:00:00:00:00:0a")
	macB = netutil.MustParseMAC("02:00:00:00:00:0b")
	ipA  = netip.MustParseAddr("10.0.0.1")
	ipB  = netip.MustParseAddr("20.0.0.1")
)

func udpFrame(dstPort uint16) []byte {
	return packet.NewUDP(macA, macB, ipA, ipB, 4000, dstPort, []byte("x")).Serialize()
}

// collector gathers frames emitted on a port.
type collector struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collector) sink(frame []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, append([]byte(nil), frame...))
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *collector) last(t *testing.T) *packet.Packet {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.frames) == 0 {
		t.Fatal("no frames collected")
	}
	p, err := packet.Decode(c.frames[len(c.frames)-1])
	if err != nil {
		t.Fatalf("decode emitted frame: %v", err)
	}
	return p
}

func newTestSwitch() (*Switch, map[uint16]*collector) {
	sw := NewSwitch(1)
	sinks := make(map[uint16]*collector)
	for _, p := range []uint16{1, 2, 3} {
		c := &collector{}
		sinks[p] = c
		sw.AttachPort(p, c.sink)
	}
	return sw, sinks
}

func TestSwitchForwarding(t *testing.T) {
	sw, sinks := newTestSwitch()
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1).DstPort(80),
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
	})
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1),
		Priority: 1,
		Actions:  []openflow.Action{openflow.Output(3)},
	})

	if err := sw.Inject(1, udpFrame(80)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Inject(1, udpFrame(443)); err != nil {
		t.Fatal(err)
	}
	if sinks[2].count() != 1 || sinks[3].count() != 1 {
		t.Errorf("port2=%d port3=%d, want 1/1", sinks[2].count(), sinks[3].count())
	}
	if got := sinks[2].last(t); got.DstPort() != 80 {
		t.Errorf("port 2 got dstport %d", got.DstPort())
	}
}

func TestSwitchPriorityOrder(t *testing.T) {
	sw, sinks := newTestSwitch()
	// Lower priority installed first; higher must still win.
	sw.Table.Add(&FlowEntry{Match: policy.MatchAll.Port(1), Priority: 1,
		Actions: []openflow.Action{openflow.Output(3)}})
	sw.Table.Add(&FlowEntry{Match: policy.MatchAll.Port(1).DstPort(80), Priority: 100,
		Actions: []openflow.Action{openflow.Output(2)}})
	sw.Inject(1, udpFrame(80))
	if sinks[2].count() != 1 || sinks[3].count() != 0 {
		t.Errorf("priority order violated: port2=%d port3=%d", sinks[2].count(), sinks[3].count())
	}
}

func TestSwitchHeaderRewrite(t *testing.T) {
	sw, sinks := newTestSwitch()
	newDst := netip.MustParseAddr("74.125.224.161")
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1),
		Priority: 5,
		Actions: []openflow.Action{
			{Type: openflow.ActionTypeSetNWDst, IP: netutil.Addr4From(newDst)},
			{Type: openflow.ActionTypeSetDLDst, MAC: macB},
			openflow.Output(2),
		},
	})
	sw.Inject(1, udpFrame(80))
	got := sinks[2].last(t)
	if got.DstIP() != newDst {
		t.Errorf("dstip = %v, want %v", got.DstIP(), newDst)
	}
	if got.Eth.DstMAC != macB {
		t.Errorf("dstmac = %v", got.Eth.DstMAC)
	}
	// IPv4 checksum must be recomputed correctly.
	wire := got.Serialize()
	if packet.Checksum(wire[14:34]) != 0 {
		t.Error("rewritten frame has a bad IPv4 checksum")
	}
}

func TestSwitchMulticastOutput(t *testing.T) {
	sw, sinks := newTestSwitch()
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1),
		Priority: 5,
		Actions:  []openflow.Action{openflow.Output(2), openflow.Output(3)},
	})
	sw.Inject(1, udpFrame(80))
	if sinks[2].count() != 1 || sinks[3].count() != 1 {
		t.Errorf("multicast delivered %d/%d", sinks[2].count(), sinks[3].count())
	}
}

func TestSwitchSequentialRewriteBetweenOutputs(t *testing.T) {
	sw, sinks := newTestSwitch()
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1),
		Priority: 5,
		Actions: []openflow.Action{
			openflow.Output(2), // original copy
			{Type: openflow.ActionTypeSetTPDst, TP: 8080},
			openflow.Output(3), // rewritten copy
		},
	})
	sw.Inject(1, udpFrame(80))
	if got := sinks[2].last(t); got.DstPort() != 80 {
		t.Errorf("first copy dstport = %d, want 80", got.DstPort())
	}
	if got := sinks[3].last(t); got.DstPort() != 8080 {
		t.Errorf("second copy dstport = %d, want 8080", got.DstPort())
	}
}

func TestSwitchDrop(t *testing.T) {
	sw, sinks := newTestSwitch()
	sw.Table.Add(&FlowEntry{Match: policy.MatchAll.Port(1), Priority: 5}) // no actions
	sw.Inject(1, udpFrame(80))
	for p, c := range sinks {
		if c.count() != 0 {
			t.Errorf("port %d received %d frames from a drop rule", p, c.count())
		}
	}
}

func TestSwitchTableMissWithoutController(t *testing.T) {
	sw, _ := newTestSwitch()
	sw.Inject(1, udpFrame(80))
	if noMatch := sw.DroppedByReason()[DropNoMatch]; noMatch != 1 {
		t.Errorf("no_match drops = %d, want 1", noMatch)
	}
}

func TestSwitchTableMissPuntsToController(t *testing.T) {
	sw, _ := newTestSwitch()
	got := make(chan *openflow.PacketIn, 1)
	sw.AttachController(func(pi *openflow.PacketIn) { got <- pi })
	sw.Inject(2, udpFrame(80))
	select {
	case pi := <-got:
		if pi.InPort != 2 || pi.Reason != openflow.ReasonNoMatch {
			t.Errorf("packet-in = %+v", pi)
		}
		if _, err := packet.Decode(pi.Data); err != nil {
			t.Errorf("punted frame undecodable: %v", err)
		}
	default:
		t.Fatal("no packet-in delivered")
	}
}

func TestSwitchFlood(t *testing.T) {
	sw, sinks := newTestSwitch()
	sw.Table.Add(&FlowEntry{
		Match: policy.MatchAll, Priority: 1,
		Actions: []openflow.Action{openflow.Output(openflow.PortFlood)},
	})
	sw.Inject(1, udpFrame(80))
	if sinks[1].count() != 0 {
		t.Error("flood must not echo to the ingress port")
	}
	if sinks[2].count() != 1 || sinks[3].count() != 1 {
		t.Errorf("flood delivered %d/%d", sinks[2].count(), sinks[3].count())
	}
}

func TestSwitchOutputToMissingPort(t *testing.T) {
	sw, _ := newTestSwitch()
	sw.Table.Add(&FlowEntry{Match: policy.MatchAll, Priority: 1,
		Actions: []openflow.Action{openflow.Output(99)}})
	sw.Inject(1, udpFrame(80))
	if noPort := sw.DroppedByReason()[DropNoPort]; noPort != 1 {
		t.Errorf("no_port drops = %d, want 1", noPort)
	}
}

func TestSwitchInjectUnattachedPort(t *testing.T) {
	sw, _ := newTestSwitch()
	if err := sw.Inject(44, udpFrame(80)); err == nil {
		t.Error("inject on unattached port should error")
	}
}

func TestSwitchPortStats(t *testing.T) {
	sw, _ := newTestSwitch()
	sw.Table.Add(&FlowEntry{Match: policy.MatchAll.Port(1), Priority: 1,
		Actions: []openflow.Action{openflow.Output(2)}})
	frame := udpFrame(80)
	for i := 0; i < 5; i++ {
		sw.Inject(1, frame)
	}
	in, _ := sw.Stats(1)
	out, _ := sw.Stats(2)
	if in.RxPackets != 5 || in.RxBytes != uint64(5*len(frame)) {
		t.Errorf("ingress stats = %+v", in)
	}
	if out.TxPackets != 5 || out.TxBytes != uint64(5*len(frame)) {
		t.Errorf("egress stats = %+v", out)
	}
	if _, ok := sw.Stats(77); ok {
		t.Error("stats for missing port should report !ok")
	}
}

func TestFlowTableReplaceAndDelete(t *testing.T) {
	ft := NewFlowTable()
	m := policy.MatchAll.Port(1)
	ft.Add(&FlowEntry{Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)}})
	ft.Add(&FlowEntry{Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(3)}})
	if ft.Len() != 1 {
		t.Fatalf("replace grew table to %d", ft.Len())
	}
	e, ok := ft.Lookup(policy.Packet{Port: 1}, 0)
	if !ok || e.Actions[0].Port != 3 {
		t.Errorf("lookup after replace = %+v", e)
	}
	if n := ft.Delete(m, 5, true); n != 1 {
		t.Errorf("strict delete removed %d", n)
	}
	if ft.Len() != 0 {
		t.Errorf("table len = %d after delete", ft.Len())
	}
}

func TestFlowTableWildcardDelete(t *testing.T) {
	ft := NewFlowTable()
	ft.Add(&FlowEntry{Match: policy.MatchAll.Port(1).DstPort(80), Priority: 5})
	ft.Add(&FlowEntry{Match: policy.MatchAll.Port(1).DstPort(443), Priority: 6})
	ft.Add(&FlowEntry{Match: policy.MatchAll.Port(2), Priority: 7})
	if n := ft.Delete(policy.MatchAll.Port(1), 0, false); n != 2 {
		t.Errorf("wildcard delete removed %d, want 2", n)
	}
	if ft.Len() != 1 {
		t.Errorf("table len = %d", ft.Len())
	}
	ft.Clear()
	if ft.Len() != 0 {
		t.Error("Clear left entries")
	}
}

func TestFlowTableCounters(t *testing.T) {
	ft := NewFlowTable()
	ft.Add(&FlowEntry{Match: policy.MatchAll, Priority: 1, Actions: []openflow.Action{openflow.Output(1)}})
	ft.Lookup(policy.Packet{}, 100)
	ft.Lookup(policy.Packet{}, 50)
	e := ft.Entries()[0]
	if e.Packets != 2 || e.Bytes != 150 {
		t.Errorf("counters = %d pkts %d bytes", e.Packets, e.Bytes)
	}
	if ft.Dump() == "" {
		t.Error("Dump should render entries")
	}
}

func TestServeControllerEndToEnd(t *testing.T) {
	sw, sinks := newTestSwitch()
	ctrlSide, swSide := net.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- sw.ServeController(swSide) }()

	ctrl := openflow.NewConn(ctrlSide)
	fr, err := ctrl.HandshakeController()
	if err != nil {
		t.Fatal(err)
	}
	if fr.DatapathID != 1 || fr.NumPorts != 3 {
		t.Errorf("features = %+v", fr)
	}

	// Install a rule over the wire and verify with a barrier.
	fm, err := openflow.FlowModFromRule(policy.Rule{
		Match:   policy.MatchAll.Port(1).DstPort(80),
		Actions: []policy.Mods{policy.Identity.SetPort(2)},
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SendFlowMod(fm); err != nil {
		t.Fatal(err)
	}
	xid, err := ctrl.SendBarrier()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := ctrl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != openflow.TypeBarrierReply || reply.XID != xid {
		t.Fatalf("barrier reply = %+v", reply.Header)
	}

	sw.Inject(1, udpFrame(80))
	if sinks[2].count() != 1 {
		t.Error("wire-installed rule did not forward")
	}

	// Table miss must arrive as PACKET_IN.
	go sw.Inject(1, udpFrame(443))
	msg, err := ctrl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := msg.DecodePacketIn()
	if err != nil {
		t.Fatal(err)
	}
	if pi.InPort != 1 {
		t.Errorf("packet-in port = %d", pi.InPort)
	}

	// Controller injects a response via PACKET_OUT.
	frame := packet.NewUDP(macB, macA, ipB, ipA, 80, 4000, []byte("re")).Serialize()
	if err := ctrl.SendPacketOut(&openflow.PacketOut{
		InPort:  openflow.PortNone,
		Actions: []openflow.Action{openflow.Output(1)},
		Data:    frame,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sinks[1].count() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sinks[1].count() != 1 {
		t.Fatal("packet-out not delivered")
	}

	ctrlSide.Close()
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("ServeController did not exit after controller disconnect")
	}
}
