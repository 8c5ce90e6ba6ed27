package core

import (
	"net/netip"
	"testing"

	"sdx/internal/netutil"
	"sdx/internal/packet"
	"sdx/internal/policy"
)

var groupPrefix = netip.MustParsePrefix("239.9.0.0/16")

func figure1WithGroup(t *testing.T) *Controller {
	t.Helper()
	c := figure1(t, DefaultOptions())
	if err := c.AddGroup(Group{Name: "blue", Prefix: groupPrefix, Members: []ID{"A", "B", "C"}}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAddGroupValidation(t *testing.T) {
	c := figure1(t, DefaultOptions())
	bad := []Group{
		{Prefix: groupPrefix, Members: []ID{"A", "B"}},                 // no name
		{Name: "g", Members: []ID{"A", "B"}},                           // no prefix
		{Name: "g", Prefix: groupPrefix, Members: []ID{"A"}},           // one member
		{Name: "g", Prefix: groupPrefix, Members: []ID{"A", "A"}},      // one after dedup
		{Name: "g", Prefix: groupPrefix, Members: []ID{"A", "nobody"}}, // unknown member
	}
	for _, g := range bad {
		if err := c.AddGroup(g); err == nil {
			t.Errorf("AddGroup(%+v) accepted", g)
		}
	}
	ok := Group{Name: "g", Prefix: groupPrefix, Members: []ID{"C", "A", "A", "B"}}
	if err := c.AddGroup(ok); err != nil {
		t.Fatal(err)
	}
	if err := c.AddGroup(ok); err == nil {
		t.Error("duplicate group name accepted")
	}
	gs := c.Groups()
	if len(gs) != 1 || len(gs[0].Members) != 3 ||
		gs[0].Members[0] != "A" || gs[0].Members[1] != "B" || gs[0].Members[2] != "C" {
		t.Fatalf("Groups() = %+v, want deduped sorted {A,B,C}", gs)
	}
}

// TestGroupCompileRules pins the compiled shape: one replication rule per
// member ingress port, prepended ahead of the unicast base rules, matching
// (ingress port, group prefix), fanning out to every OTHER member port in
// ascending order — the sender's own port excluded at compile time.
func TestGroupCompileRules(t *testing.T) {
	c := figure1WithGroup(t)
	res, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Members A{1} B{2,3} C{4}: four ingress rules over ports 1..4.
	if len(res.Rules) < 4 {
		t.Fatalf("only %d rules", len(res.Rules))
	}
	for i, wantIn := range []uint16{1, 2, 3, 4} {
		r := res.Rules[i]
		if want := policy.MatchAll.Port(wantIn).DstIP(groupPrefix); r.Match != want {
			t.Fatalf("rule %d match = %v, want %v", i, r.Match, want)
		}
		var prev uint16
		for j, m := range r.Actions {
			out, ok := m.GetPort()
			if !ok {
				t.Fatalf("rule %d copy %d has no output", i, j)
			}
			if out == wantIn {
				t.Fatalf("rule %d replicates back to its sender", i)
			}
			if j > 0 && out <= prev {
				t.Fatalf("rule %d ports not ascending: %v", i, r.Actions)
			}
			prev = out
		}
		if len(r.Actions) != 3 {
			t.Fatalf("rule %d has %d copies, want 3", i, len(r.Actions))
		}
	}
	// Determinism: recompiling yields the same group band byte for byte.
	res2, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if res.Rules[i].Match != res2.Rules[i].Match ||
			len(res.Rules[i].Actions) != len(res2.Rules[i].Actions) {
			t.Fatalf("recompile changed group rule %d", i)
		}
		for j := range res.Rules[i].Actions {
			if res.Rules[i].Actions[j] != res2.Rules[i].Actions[j] {
				t.Fatalf("recompile changed group rule %d copy %d", i, j)
			}
		}
	}
}

// groupFrame is a frame addressed into the group prefix, entering at the
// given member's ingress. The dst MAC is irrelevant to the replication rule
// (the match is ingress port + prefix), mirroring what a member's router
// actually emits for multicast.
func groupFrame(src netutil.MAC, srcIP string) []byte {
	return packet.NewUDP(src, netutil.BroadcastMAC,
		netip.MustParseAddr(srcIP), netip.MustParseAddr("239.9.1.1"),
		5000, 5001, []byte("group-payload")).Serialize()
}

// TestGroupReplicationThroughSwitch runs the compiled table on a real
// dataplane switch: a group frame entering at a member port is rendered once
// and delivered to every other member port, never back to the sender, and
// unicast forwarding through the same table keeps working.
func TestGroupReplicationThroughSwitch(t *testing.T) {
	c := figure1WithGroup(t)
	sw, sinks := deployFigure1(t, c)

	// From A (port 1): B's two ports and C's port each get exactly one copy.
	if err := sw.Inject(1, groupFrame(macA1, "10.1.0.1")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint16{2, 3, 4} {
		if got := len(sinks[p].frames); got != 1 {
			t.Errorf("port %d got %d copies, want 1", p, got)
		}
	}
	if got := len(sinks[1].frames); got != 0 {
		t.Errorf("sender port got %d copies of its own frame", got)
	}

	// From B's second port (port 3): ports 1, 2, 4 — the sender's OTHER port
	// is still a member port and receives a copy; only the ingress itself is
	// excluded.
	clearSinks(sinks)
	if err := sw.Inject(3, groupFrame(macB2, "10.2.0.1")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint16{1, 2, 4} {
		if got := len(sinks[p].frames); got != 1 {
			t.Errorf("port %d got %d copies, want 1", p, got)
		}
	}
	if got := len(sinks[3].frames); got != 0 {
		t.Errorf("sender port got %d copies", got)
	}

	// Unicast coexistence: the Figure 1 policy still steers port-80 traffic
	// to B through the band below the group rules.
	clearSinks(sinks)
	if err := sw.Inject(1, vmacFrame(t, c, "8.8.8.8", "11.0.0.9", 80)); err != nil {
		t.Fatal(err)
	}
	got := onlyPort(t, sinks, 2).lastPacket(t)
	if got.Eth.DstMAC != macB1 {
		t.Errorf("unicast frame dst = %v, want %v", got.Eth.DstMAC, macB1)
	}
}

// TestGroupTrafficOutsidePrefixUntouched: traffic from a member that is NOT
// group-addressed must not hit the replication band.
func TestGroupTrafficOutsidePrefixUntouched(t *testing.T) {
	c := figure1WithGroup(t)
	sw, sinks := deployFigure1(t, c)
	frame := packet.NewUDP(macA1, netutil.BroadcastMAC,
		netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("198.51.100.7"),
		5000, 5001, []byte("not-group")).Serialize()
	if err := sw.Inject(1, frame); err != nil {
		t.Fatal(err)
	}
	for p, s := range sinks {
		if len(s.frames) != 0 {
			t.Errorf("port %d received %d copies of non-group traffic", p, len(s.frames))
		}
	}
}
