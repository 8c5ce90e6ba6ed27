package core

import (
	"net/netip"
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/packet"
	"sdx/internal/routeserver"
)

func TestFastPathOnWithdrawal(t *testing.T) {
	c := figure1(t, DefaultOptions())
	sw, sinks := deployFigure1(t, c)
	baseRules := sw.Table.Len()

	// C withdraws p1: the best route for p1 flips to B.
	touched, err := c.RouteServer().Withdraw("C", p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(touched) != 1 || touched[0] != p1 {
		t.Fatalf("withdrawal touched %v, want [%v]", touched, p1)
	}
	res, err := c.FastReact(touched)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewFECs) != 1 || len(res.NewFECs[0].Prefixes) != 1 || res.NewFECs[0].Prefixes[0] != p1 {
		t.Fatalf("fast path FECs = %+v", res.NewFECs)
	}
	if res.NewFECs[0].First != "B" {
		t.Errorf("new best advertiser = %v, want B", res.NewFECs[0].First)
	}
	if len(res.Rules) == 0 {
		t.Fatal("fast path produced no rules")
	}
	if err := InstallFast(sw, res); err != nil {
		t.Fatal(err)
	}
	if sw.Table.Len() <= baseRules {
		t.Error("fast path rules not added above the base table")
	}

	// Traffic tagged with the NEW VMAC (what A's router uses after the
	// refreshed advertisement) must flow: default (non-web) now via B.
	newTag := res.NewFECs[0].VMAC
	frame := packet.NewUDP(clientMAC, newTag,
		netip.MustParseAddr("8.8.8.8"), netip.MustParseAddr("11.0.0.9"),
		5000, 22, nil).Serialize()
	if err := sw.Inject(1, frame); err != nil {
		t.Fatal(err)
	}
	onlyPort(t, sinks, 2) // B1 (B's inbound TE, low source half)
	clearSinks(sinks)

	// Web traffic still matches A's policy toward B (B exports p1).
	frame = packet.NewUDP(clientMAC, newTag,
		netip.MustParseAddr("8.8.8.8"), netip.MustParseAddr("11.0.0.9"),
		5000, 80, nil).Serialize()
	sw.Inject(1, frame)
	onlyPort(t, sinks, 2)
	clearSinks(sinks)

	// HTTPS toward C must NOT fire anymore: C no longer exports p1, so the
	// fast-path slice drops back to... default via B.
	frame = packet.NewUDP(clientMAC, newTag,
		netip.MustParseAddr("8.8.8.8"), netip.MustParseAddr("11.0.0.9"),
		5000, 443, nil).Serialize()
	sw.Inject(1, frame)
	onlyPort(t, sinks, 2)

	// The controller's VNH table now maps p1 to the fresh class, so the
	// route server re-advertises the new VNH.
	fec, ok := c.fecs.ByPrefix(p1)
	if !ok || fec.VMAC != newTag {
		t.Errorf("FEC table not updated: %+v, %v", fec, ok)
	}
	// ARP for the fresh VNH resolves.
	if mac, ok := c.ResolveARP(res.NewFECs[0].VNH); !ok || mac != newTag {
		t.Errorf("ResolveARP(new VNH) = %v, %v", mac, ok)
	}
}

// TestFastPathHonoursExportPolicy pins the quick stage to the background
// stage's §4.1 guarantee: A's fwd(B) carries a prefix only if B exported it
// TO A. B advertises p1 but the export policy hides it from A, so A's web
// traffic for p1 follows the default route via C — before and after a quick
// reaction re-tags p1.
func TestFastPathHonoursExportPolicy(t *testing.T) {
	hideP1FromA := func(advertiser, receiver routeserver.ID, _ uint32, r bgp.Route) bool {
		return !(advertiser == "B" && receiver == "A" && r.Prefix == p1)
	}
	c := figure1On(t, routeserver.New(hideP1FromA), DefaultOptions())
	sw, sinks := deployFigure1(t, c)

	sw.Inject(1, vmacFrame(t, c, "8.8.8.8", "11.0.0.9", 80))
	onlyPort(t, sinks, 4)
	clearSinks(sinks)

	// C re-advertises p1 with a longer path (still the best route).
	touched, err := c.RouteServer().Advertise("C", routeFrom(65003, "172.31.0.4", p1, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.FastReact(touched)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewFECs) != 1 || res.NewFECs[0].First != "C" {
		t.Fatalf("fast path FECs = %+v", res.NewFECs)
	}
	if err := InstallFast(sw, res); err != nil {
		t.Fatal(err)
	}
	frame := packet.NewUDP(clientMAC, res.NewFECs[0].VMAC,
		netip.MustParseAddr("8.8.8.8"), netip.MustParseAddr("11.0.0.9"),
		5000, 80, nil).Serialize()
	if err := sw.Inject(1, frame); err != nil {
		t.Fatal(err)
	}
	onlyPort(t, sinks, 4)
}

func TestFastPathNewPrefix(t *testing.T) {
	c := figure1(t, DefaultOptions())
	if _, err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	p9 := netip.MustParsePrefix("99.0.0.0/8")
	touched, err := c.RouteServer().Advertise("B", routeFrom(65002, "172.31.0.2", p9, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.FastReact(touched)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewFECs) != 1 || res.NewFECs[0].First != "B" {
		t.Fatalf("fast path for new prefix = %+v", res.NewFECs)
	}
	if len(res.Rules) == 0 {
		t.Error("no rules for new prefix")
	}
}

func TestFastPathPrefixFullyGone(t *testing.T) {
	c := figure1(t, DefaultOptions())
	if _, err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	// p4 is only advertised by C; withdrawing it removes the prefix.
	touched, err := c.RouteServer().Withdraw("C", p4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.FastReact(touched)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewFECs) != 0 || len(res.Rules) != 0 {
		t.Errorf("vanished prefix should produce nothing: %+v", res)
	}
}

func TestReoptimizeResetsFastPath(t *testing.T) {
	c := figure1(t, DefaultOptions())
	if _, err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	touched, _ := c.RouteServer().Withdraw("C", p1)
	if _, err := c.FastReact(touched); err != nil {
		t.Fatal(err)
	}
	res, err := c.Reoptimize()
	if err != nil {
		t.Fatal(err)
	}
	// After reoptimization the FEC partition reflects the new topology.
	// Membership vectors: p1 (B yes, C no, best B), p2 (B yes, C yes,
	// best C), p3 (B yes, C yes, best B), p4 (B no, C yes, best C) — all
	// distinct, so four groups.
	if res.Stats.PrefixGroups != 4 {
		t.Errorf("prefix groups after reoptimize = %d, want 4", res.Stats.PrefixGroups)
	}
	fec, ok := c.fecs.ByPrefix(p1)
	if !ok || fec.First != "B" || len(fec.Prefixes) != 1 {
		t.Errorf("p1's class after reoptimize = %+v, %v", fec, ok)
	}
}

func TestFastPathBurst(t *testing.T) {
	// Several prefixes change at once; each gets its own singleton class
	// and the rule count grows roughly linearly (Figure 9's shape).
	c := figure1(t, DefaultOptions())
	if _, err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	var prefixes []netip.Prefix
	for i := 0; i < 5; i++ {
		prefixes = append(prefixes, netip.MustParsePrefix(
			netip.AddrFrom4([4]byte{byte(100 + i), 0, 0, 0}).String()+"/8"))
	}
	for _, p := range prefixes {
		if _, err := c.RouteServer().Advertise("B", routeFrom(65002, "172.31.0.2", p, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Hand the controller the burst as one batch.
	res, err := c.FastReact(prefixes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewFECs) != len(prefixes) {
		t.Fatalf("classes = %d, want %d", len(res.NewFECs), len(prefixes))
	}
	perPrefix := len(res.Rules) / len(prefixes)
	if perPrefix == 0 {
		t.Error("expected at least one rule per changed prefix")
	}
}
