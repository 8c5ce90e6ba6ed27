package core

import (
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"sdx/internal/dataplane"
	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/packet"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
)

func TestLocationSpaceHelpers(t *testing.T) {
	if !IsPhysical(1) || !IsPhysical(0x3fff) || IsPhysical(0) || IsPhysical(0x4000) {
		t.Error("IsPhysical boundaries wrong")
	}
	if !IsVirtual(0x4000) || !IsVirtual(0x7fff) || IsVirtual(0x3fff) || IsVirtual(0x8000) {
		t.Error("IsVirtual boundaries wrong")
	}
	if got := EgressPort(7); got != 0x8007 {
		t.Errorf("EgressPort(7) = %#x", got)
	}
	if p, ok := IsEgress(0x8007); !ok || p != 7 {
		t.Errorf("IsEgress = %d, %v", p, ok)
	}
	if _, ok := IsEgress(0x7fff); ok {
		t.Error("virtual location misread as egress")
	}
}

func TestControllerAccessors(t *testing.T) {
	c := figure1(t, DefaultOptions())
	if c.Options().VNHEncoding != true {
		t.Error("Options not round-tripped")
	}
	if owner, ok := c.PortOwner(2); !ok || owner != "B" {
		t.Errorf("PortOwner(2) = %v, %v", owner, ok)
	}
	if _, ok := c.PortOwner(99); ok {
		t.Error("unknown port should have no owner")
	}
	if _, ok := c.VirtualPort("Z"); ok {
		t.Error("unknown participant should have no virtual port")
	}
	vA := c.MustVirtualPort("A")
	vB := c.MustVirtualPort("B")
	if vA == vB || !IsVirtual(vA) || !IsVirtual(vB) {
		t.Errorf("virtual ports = %d, %d", vA, vB)
	}
	if got := c.Participants(); len(got) != 3 || got[0] != "A" {
		t.Errorf("Participants = %v", got)
	}
	if _, ok := c.Participant("Z"); ok {
		t.Error("unknown participant lookup should fail")
	}
	if c.RouteServer() == nil {
		t.Error("RouteServer accessor nil")
	}
}

func TestMustVirtualPortPanics(t *testing.T) {
	c := figure1(t, DefaultOptions())
	defer func() {
		if recover() == nil {
			t.Error("MustVirtualPort should panic for unknown id")
		}
	}()
	c.MustVirtualPort("Z")
}

func TestDeliverPanicsOnUnknownPort(t *testing.T) {
	c := figure1(t, DefaultOptions())
	defer func() {
		if recover() == nil {
			t.Error("Deliver should panic for a port nobody owns")
		}
	}()
	c.Deliver(99)
}

func TestDeliverToPanicsOnRemote(t *testing.T) {
	c := figure1(t, DefaultOptions())
	if err := c.AddParticipant(Participant{ID: "R", AS: 65009}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("DeliverTo should panic for a port-less participant")
		}
	}()
	c.DeliverTo("R")
}

func TestRewriteRejectsRawPhysicalForward(t *testing.T) {
	c := figure1(t, DefaultOptions())
	// fwd(2) is a raw physical port number: ambiguous (ingress vs egress),
	// so the pipeline must reject it with a helpful error.
	if err := c.SetPolicies("A", nil, policy.Fwd(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(); err == nil {
		t.Error("forward to a raw physical port should fail compilation")
	}
}

func TestRewriteRejectsUnknownVirtualPort(t *testing.T) {
	c := figure1(t, DefaultOptions())
	if err := c.SetPolicies("A", nil, policy.Fwd(0x7777)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(); err == nil {
		t.Error("forward to an unassigned virtual port should fail compilation")
	}
}

func TestEgressForwardGetsMACRewrite(t *testing.T) {
	// A middlebox-style outbound policy forwarding straight to an egress
	// port must gain the attached router's MAC rewrite automatically.
	c := figure1(t, DefaultOptions())
	pol := policy.SeqOf(
		policy.MatchPolicy(policy.MatchAll.SrcIP(netip.MustParsePrefix("8.0.0.0/8"))),
		policy.Fwd(EgressPort(4)), // C's port
	)
	if err := c.SetPolicies("A", nil, pol); err != nil {
		t.Fatal(err)
	}
	sw, sinks := deployFigure1(t, c)
	// A srcip-only policy has no reach restriction, so no tags exist; the
	// frame carries a plain router MAC and the policy still captures it.
	frame := vmacLessFrame(macB1, "11.0.0.9")
	if err := sw.Inject(1, frame); err != nil {
		t.Fatal(err)
	}
	got := onlyPort(t, sinks, 4).lastPacket(t)
	if got.Eth.DstMAC != macC1 {
		t.Errorf("egress frame carries %v, want C's router MAC", got.Eth.DstMAC)
	}
}

func TestFlowModsForRulesErrors(t *testing.T) {
	rules := []policy.Rule{
		{Match: policy.MatchAll.Port(1), Actions: []policy.Mods{policy.Identity.SetPort(2)}},
		{Match: policy.MatchAll.Port(2), Actions: []policy.Mods{policy.Identity.SetPort(3)}},
	}
	if _, err := FlowModsForRules(rules, 1); err == nil {
		t.Error("rules exceeding the priority budget should error")
	}
	fms, err := FlowModsForRules(rules, 100)
	if err != nil {
		t.Fatal(err)
	}
	if fms[0].Priority != 100 || fms[1].Priority != 99 {
		t.Errorf("priorities = %d, %d", fms[0].Priority, fms[1].Priority)
	}
}

// TestPushOverWire is the SwitchServer contract over a real OpenFlow
// channel: after every push a switch holds exactly the desired table — a
// base commit, a quick-stage band on top, a recompilation that clears both
// the band and the previous base's leftovers, and a (re)attaching switch
// with foreign and outdated entries reconciled to the same table.
func TestPushOverWire(t *testing.T) {
	c := figure1(t, DefaultOptions())
	r1, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv := NewSwitchServer(reg)
	srv.HandlePacketIn = c.HandlePacketIn
	attach := func(sw *dataplane.Switch) {
		ctrlSide, swSide := netPipe(t)
		go sw.ServeController(swSide)
		go srv.Serve(ctrlSide)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// converged waits until sw's (priority, match, actions) set is exactly
	// the union of the given lowerings.
	converged := func(step string, sw *dataplane.Switch, bands ...[]*openflow.FlowMod) {
		t.Helper()
		var lines []string
		for _, fms := range bands {
			for _, fm := range fms {
				lines = append(lines, fmt.Sprintf("%d %v %v", fm.Priority, fm.Match.ToPolicy(), fm.Actions))
			}
		}
		sort.Strings(lines)
		want := strings.Join(lines, "\n")
		var got string
		deadline := time.Now().Add(5 * time.Second)
		for got = tableLines(sw); got != want && time.Now().Before(deadline); got = tableLines(sw) {
			time.Sleep(2 * time.Millisecond)
		}
		if got != want {
			t.Fatalf("%s: switch table\n%s\nwant\n%s", step, got, want)
		}
	}

	// An entry no compilation produces: the first commit's wipe clears it
	// from a switch attached before any commit, and the resync
	// strict-deletes it from one attaching later.
	foreign := &openflow.FlowMod{
		Match:    openflow.MatchFromPolicy(policy.MatchAll.Port(4).DstPort(9)),
		Priority: 7,
		Command:  openflow.FlowModAdd,
		Actions:  []openflow.Action{openflow.Output(1)},
	}
	sw1 := chaosSwitch(9)
	if err := sw1.InstallFlowMods([]*openflow.FlowMod{foreign}); err != nil {
		t.Fatal(err)
	}
	attach(sw1)
	waitFor("the first switch to attach", func() bool { return srv.Switches() == 1 })

	// 1. The first commit wipes: the switch holds exactly r1's lowering.
	base1, err := FlowModsForRules(r1.Rules, fastPriority-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetBase(r1); err != nil {
		t.Fatal(err)
	}
	converged("SetBase(r1)", sw1, base1)

	// 2. A quick-stage band lands on top of the base band.
	touched, err := c.RouteServer().Withdraw("C", p1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := c.FastReact(touched)
	if err != nil {
		t.Fatal(err)
	}
	fastFms, err := FlowModsForRules(fast.Rules, fastTop)
	if err != nil {
		t.Fatal(err)
	}
	if len(fastFms) == 0 {
		t.Fatal("the withdrawal produced no quick-stage rules")
	}
	if err := srv.PushFastAll(fast); err != nil {
		t.Fatal(err)
	}
	converged("PushFastAll", sw1, base1, fastFms)

	// 3. A recompilation leaves exactly r2: the fast band and the r1-only
	// rules are gone.
	r2, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base2, err := FlowModsForRules(r2.Rules, fastPriority-1)
	if err != nil {
		t.Fatal(err)
	}
	inR2 := make(map[flowKey]bool, len(base2))
	for _, fm := range base2 {
		inR2[keyOf(fm)] = true
	}
	var r1Only *openflow.FlowMod
	for _, fm := range base1 {
		if !inR2[keyOf(fm)] {
			r1Only = fm
			break
		}
	}
	if r1Only == nil {
		t.Fatal("r2 keeps every r1 entry; the recompilation deletes nothing")
	}
	if err := srv.SetBase(r2); err != nil {
		t.Fatal(err)
	}
	converged("SetBase(r2)", sw1, base2)

	// 4. A second switch, preloaded with the foreign entry and an r1-only
	// one, is reconciled to exactly r2 on attach.
	if inR2[keyOf(foreign)] {
		t.Fatal("the foreign entry collides with a desired one")
	}
	sw2 := chaosSwitch(10)
	if err := sw2.InstallFlowMods([]*openflow.FlowMod{foreign, r1Only}); err != nil {
		t.Fatal(err)
	}
	attach(sw2)
	waitFor("the second switch to attach", func() bool { return srv.Switches() == 2 })
	converged("resync", sw2, base2)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\nsdx_core_resync_stale_rules_total 2\n") {
		t.Errorf("want sdx_core_resync_stale_rules_total 2 in\n%s", sb.String())
	}
	converged("after the resync", sw1, base2)
}

func TestEmptyExchangeCompiles(t *testing.T) {
	c := NewController(routeserver.New(nil), DefaultOptions())
	res, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) != 0 {
		t.Errorf("empty exchange produced %d rules", len(res.Rules))
	}
}

func TestParticipantsWithoutPoliciesStillForward(t *testing.T) {
	// No policies anywhere: pure route-server behaviour via shared defaults.
	c := figure1(t, DefaultOptions())
	if err := c.SetPolicies("A", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.SetPolicies("B", nil, nil); err != nil {
		t.Fatal(err)
	}
	res, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// No policies -> no reach sets -> no prefix groups; forwarding is
	// purely router-MAC based.
	if res.Stats.PrefixGroups != 0 {
		t.Errorf("groups = %d, want 0 without policies", res.Stats.PrefixGroups)
	}
	sw := dataplane.NewSwitch(1)
	sinks := map[uint16]*frameSink{}
	for _, n := range []uint16{1, 2, 3, 4} {
		s := &frameSink{}
		sinks[n] = s
		sw.AttachPort(n, s.add)
	}
	if err := InstallBase(sw, res); err != nil {
		t.Fatal(err)
	}
	frame := vmacLessFrame(macB1, "11.0.0.9")
	if err := sw.Inject(1, frame); err != nil {
		t.Fatal(err)
	}
	onlyPort(t, sinks, 2)
}

// netPipe returns two connected TCP endpoints on loopback.
func netPipe(t *testing.T) (client, server interface {
	Read([]byte) (int, error)
	Write([]byte) (int, error)
	Close() error
	SetReadDeadline(tt time.Time) error
	SetWriteDeadline(tt time.Time) error
	SetDeadline(tt time.Time) error
	LocalAddr() net.Addr
	RemoteAddr() net.Addr
}) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// vmacLessFrame builds a frame addressed with a real router MAC (untagged
// default forwarding).
func vmacLessFrame(dstMAC netutil.MAC, dstIP string) []byte {
	return packet.NewUDP(clientMAC, dstMAC,
		netip.MustParseAddr("8.8.8.8"), netip.MustParseAddr(dstIP),
		5000, 22, nil).Serialize()
}
