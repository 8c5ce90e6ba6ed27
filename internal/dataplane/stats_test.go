package dataplane

import (
	"encoding/binary"
	"net"
	"testing"

	"sdx/internal/openflow"
	"sdx/internal/policy"
)

// Flow counters travel back over the wire on request — the monitoring path
// the deployment experiments use.
func TestServeControllerFlowStats(t *testing.T) {
	sw, _ := newTestSwitch()
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1).DstPort(80),
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
	})
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(3),
		Priority: 5,
		Actions:  []openflow.Action{openflow.Output(2)},
	})
	frame := udpFrame(80)
	for i := 0; i < 4; i++ {
		if err := sw.Inject(1, frame); err != nil {
			t.Fatal(err)
		}
	}

	ctrlSide, swSide := net.Pipe()
	go sw.ServeController(swSide)
	ctrl := openflow.NewConn(ctrlSide)
	defer ctrl.Close()
	if _, err := ctrl.HandshakeController(); err != nil {
		t.Fatal(err)
	}

	// Full dump.
	xid, err := ctrl.RequestFlowStats(openflow.MatchFromPolicy(policy.MatchAll))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ctrl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.XID != xid {
		t.Fatalf("xid = %d, want %d", msg.XID, xid)
	}
	entries, err := msg.DecodeFlowStatsReply()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("full dump returned %d entries", len(entries))
	}
	if entries[0].Packets != 4 || entries[0].Bytes != uint64(4*len(frame)) {
		t.Errorf("hit counters = %d pkts %d bytes", entries[0].Packets, entries[0].Bytes)
	}

	// Restricted dump: only rules on port 1.
	if _, err := ctrl.RequestFlowStats(openflow.MatchFromPolicy(policy.MatchAll.Port(1))); err != nil {
		t.Fatal(err)
	}
	msg, err = ctrl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	entries, err = msg.DecodeFlowStatsReply()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("restricted dump returned %d entries", len(entries))
	}
	if got, _ := entries[0].Match.ToPolicy().GetPort(); got != 1 {
		t.Errorf("restricted dump match = %v", entries[0].Match.ToPolicy())
	}
}

// Per-port RX/TX counters travel back over the OF port-stats path, the same
// counters the telemetry layer exports at scrape time.
func TestServeControllerPortStats(t *testing.T) {
	sw, _ := newTestSwitch()
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1),
		Priority: 1,
		Actions:  []openflow.Action{openflow.Output(2)},
	})
	frame := udpFrame(80)
	for i := 0; i < 3; i++ {
		if err := sw.Inject(1, frame); err != nil {
			t.Fatal(err)
		}
	}

	ctrlSide, swSide := net.Pipe()
	go sw.ServeController(swSide)
	ctrl := openflow.NewConn(ctrlSide)
	defer ctrl.Close()
	if _, err := ctrl.HandshakeController(); err != nil {
		t.Fatal(err)
	}

	// requestPortStats sends an ofp_port_stats_request: port_no plus 6
	// bytes of padding.
	requestPortStats := func(portNo uint16) uint32 {
		t.Helper()
		xid := ctrl.NextXID()
		body := binary.BigEndian.AppendUint16(nil, openflow.StatsTypePort)
		body = binary.BigEndian.AppendUint16(body, 0) // flags
		body = binary.BigEndian.AppendUint16(body, portNo)
		body = append(body, 0, 0, 0, 0, 0, 0)
		if err := ctrl.Send(openflow.Encode(openflow.TypeStatsRequest, xid, body)); err != nil {
			t.Fatal(err)
		}
		return xid
	}

	// Full dump.
	xid := requestPortStats(openflow.PortNone)
	msg, err := ctrl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.XID != xid {
		t.Fatalf("xid = %d, want %d", msg.XID, xid)
	}
	entries, err := msg.DecodePortStatsReply()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("full dump returned %d entries, want 3", len(entries))
	}
	byPort := make(map[uint16]openflow.PortStatsEntry)
	for _, e := range entries {
		byPort[e.PortNo] = e
	}
	if e := byPort[1]; e.RxPackets != 3 || e.RxBytes != uint64(3*len(frame)) {
		t.Errorf("port 1 rx = %d pkts %d bytes", e.RxPackets, e.RxBytes)
	}
	if e := byPort[2]; e.TxPackets != 3 || e.TxBytes != uint64(3*len(frame)) {
		t.Errorf("port 2 tx = %d pkts %d bytes", e.TxPackets, e.TxBytes)
	}

	// Filtered dump.
	requestPortStats(2)
	msg, err = ctrl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	entries, err = msg.DecodePortStatsReply()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].PortNo != 2 {
		t.Fatalf("filtered dump = %+v, want just port 2", entries)
	}
}
