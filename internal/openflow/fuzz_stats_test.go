package openflow_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/netip"
	"reflect"
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
)

// FuzzDecodeFlowStatsReply: any flow-stats reply the controller accepts from
// a switch — the resync's table dump, the one place the controller parses
// table state a switch supplies — re-encodes to a reply that decodes to the
// same entries and re-encodes to the same bytes. The input is a stream of
// parts read the way the resync reads them, until one lacks
// StatsReplyMore. Decoding may canonicalize (flags, durations, timeouts,
// cookies, the cut between parts), but only once.
func FuzzDecodeFlowStatsReply(f *testing.F) {
	dump := figure1Dump(f)
	f.Add(dump)
	// A truncated body: the dump cut inside its second entry, whose
	// declared length then overruns what is left.
	msg, err := openflow.ReadMessage(bytes.NewReader(dump))
	if err != nil {
		f.Fatal(err)
	}
	entryLen := int(binary.BigEndian.Uint16(msg.Body[4:6]))
	f.Add(openflow.Encode(msg.Type, msg.XID, msg.Body[:4+entryLen+entryLen/2]))
	// The same dump in two parts: the first entry flagged with more to
	// come, then the rest.
	first := append(binary.BigEndian.AppendUint16(nil, openflow.StatsTypeFlow), 0, byte(openflow.StatsReplyMore))
	first = append(first, msg.Body[4:4+entryLen]...)
	rest := append([]byte(nil), msg.Body[:4]...)
	rest = append(rest, msg.Body[4+entryLen:]...)
	f.Add(append(openflow.Encode(msg.Type, msg.XID, first), openflow.Encode(msg.Type, msg.XID, rest)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		es1, err := readDump(data)
		if err != nil {
			return
		}
		wire1 := openflow.EncodeFlowStatsReply(es1, 1)
		es2, err := readDump(wire1)
		if err != nil {
			t.Fatalf("re-encoding of %+v does not read back: %v\n %x", es1, err, wire1)
		}
		if !reflect.DeepEqual(es1, es2) {
			t.Fatalf("round trip changed the entries:\n in  %+v\n out %+v", es1, es2)
		}
		for i := range es1 {
			if es1[i].Match.ToPolicy() != es2[i].Match.ToPolicy() {
				t.Fatalf("round trip changed entry %d's policy match: %v -> %v",
					i, es1[i].Match.ToPolicy(), es2[i].Match.ToPolicy())
			}
		}
		if wire2 := openflow.EncodeFlowStatsReply(es2, 1); !bytes.Equal(wire1, wire2) {
			t.Fatalf("re-encoding is not a fixpoint:\n %x\n %x", wire1, wire2)
		}
	})
}

// readDump decodes a flow-stats reply stream part by part until a part
// arrives without StatsReplyMore, and returns every part's entries.
func readDump(data []byte) ([]openflow.FlowStatsEntry, error) {
	r := bytes.NewReader(data)
	var all []openflow.FlowStatsEntry
	for more := true; more; {
		msg, err := openflow.ReadMessage(r)
		if err != nil {
			return nil, err
		}
		var es []openflow.FlowStatsEntry
		if es, more, err = msg.DecodeFlowStatsReply(); err != nil {
			return nil, err
		}
		all = append(all, es...)
	}
	return all, nil
}

// figure1Dump compiles the paper's Figure 1 exchange (A peers by
// application, B steers inbound traffic by source, C is plain), installs it
// on a dataplane.Switch and returns the switch's answer to a full
// flow-stats request, as read off the wire.
func figure1Dump(tb testing.TB) []byte {
	tb.Helper()
	rs := routeserver.New(nil)
	c := core.NewController(rs, core.DefaultOptions())
	port := func(n uint16, mac, ip string) core.Port {
		return core.Port{Number: n, MAC: netutil.MustParseMAC(mac), RouterIP: netip.MustParseAddr(ip)}
	}
	for _, p := range []core.Participant{
		{ID: "A", AS: 65001, Ports: []core.Port{port(1, "02:0a:00:00:00:01", "172.31.0.1")}},
		{ID: "B", AS: 65002, Ports: []core.Port{port(2, "02:0b:00:00:00:01", "172.31.0.2"),
			port(3, "02:0b:00:00:00:02", "172.31.0.3")}},
		{ID: "C", AS: 65003, Ports: []core.Port{port(4, "02:0c:00:00:00:01", "172.31.0.4")}},
	} {
		if err := c.AddParticipant(p); err != nil {
			tb.Fatal(err)
		}
	}
	for _, a := range []struct {
		id      core.ID
		as      uint32
		ip      string
		prefix  string
		pathLen int
	}{
		{"B", 65002, "172.31.0.2", "11.0.0.0/8", 3},
		{"B", 65002, "172.31.0.2", "12.0.0.0/8", 3},
		{"B", 65002, "172.31.0.2", "13.0.0.0/8", 1},
		{"C", 65003, "172.31.0.4", "11.0.0.0/8", 1},
		{"C", 65003, "172.31.0.4", "12.0.0.0/8", 1},
		{"C", 65003, "172.31.0.4", "13.0.0.0/8", 3},
		{"C", 65003, "172.31.0.4", "14.0.0.0/8", 1},
		{"A", 65001, "172.31.0.1", "15.0.0.0/8", 1},
	} {
		asns := make([]uint32, a.pathLen)
		for i := range asns {
			asns[i] = a.as + uint32(i)
		}
		if _, err := rs.Advertise(a.id, bgp.Route{
			Prefix: netip.MustParsePrefix(a.prefix),
			Attrs: bgp.Intern(bgp.PathAttrs{
				NextHop: netip.MustParseAddr(a.ip),
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
			}),
			PeerAS: a.as,
			PeerID: netip.MustParseAddr(a.ip),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.SetPolicies("A", nil, policy.Par(
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(80)), c.FwdTo("B")),
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(443)), c.FwdTo("C")),
	)); err != nil {
		tb.Fatal(err)
	}
	if err := c.SetPolicies("B", policy.Par(
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.SrcIP(netip.MustParsePrefix("0.0.0.0/1"))), c.Deliver(2)),
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.SrcIP(netip.MustParsePrefix("128.0.0.0/1"))), c.Deliver(3)),
	), nil); err != nil {
		tb.Fatal(err)
	}
	res, err := c.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	sw := dataplane.NewSwitch(1)
	for _, n := range []uint16{1, 2, 3, 4} {
		sw.AttachPort(n, func([]byte) {})
	}
	if err := core.InstallBase(sw, res); err != nil {
		tb.Fatal(err)
	}

	ctrlSide, swSide := net.Pipe()
	go sw.ServeController(swSide)
	conn := openflow.NewConn(ctrlSide)
	defer conn.Close()
	if _, err := conn.HandshakeController(); err != nil {
		tb.Fatal(err)
	}
	xid, err := conn.RequestFlowStats(openflow.MatchFromPolicy(policy.MatchAll))
	if err != nil {
		tb.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		tb.Fatal(err)
	}
	if msg.Type != openflow.TypeStatsReply || msg.XID != xid {
		tb.Fatalf("got %v xid %d, want the STATS_REPLY to xid %d", msg.Type, msg.XID, xid)
	}
	if es, more, err := msg.DecodeFlowStatsReply(); err != nil || more || len(es) != len(res.Rules) {
		tb.Fatalf("dump holds %d entries (more %v, %v), want %d in one part", len(es), more, err, len(res.Rules))
	}
	return openflow.Encode(msg.Type, msg.XID, msg.Body)
}
