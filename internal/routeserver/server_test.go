package routeserver

import (
	"net/netip"
	"strings"
	"testing"

	"sdx/internal/bgp"
)

func mp(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ma(s string) netip.Addr   { return netip.MustParseAddr(s) }

func rt(prefix string, asns ...uint32) bgp.Route {
	nh := netip.AddrFrom4([4]byte{192, 0, 2, byte(asns[0] % 250)})
	return bgp.Route{
		Prefix: mp(prefix),
		Attrs: bgp.Intern(bgp.PathAttrs{
			NextHop: nh,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		}),
		PeerAS: asns[0],
		PeerID: netip.AddrFrom4([4]byte{10, 0, 0, byte(asns[0] % 250)}),
	}
}

func newABC(t *testing.T, export RouteExportFilter) *Server {
	t.Helper()
	s := New(export)
	for i, id := range []ID{"A", "B", "C"} {
		if err := s.AddParticipant(id, uint32(65001+i)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAdvertiseAndBestFor(t *testing.T) {
	s := newABC(t, nil)
	p := mp("10.0.0.0/8")
	for _, id := range []ID{"A", "B", "C"} {
		if _, ok := s.BestFor(id, p); ok {
			t.Fatalf("%s has a best route before anything was advertised", id)
		}
	}
	touched, err := s.Advertise("B", rt("10.0.0.0/8", 65002))
	if err != nil {
		t.Fatal(err)
	}
	if len(touched) != 1 || touched[0] != p {
		t.Fatalf("touched = %v, want [%v]", touched, p)
	}
	// A and C gain a best route; B (the advertiser) does not learn it back.
	if _, ok := s.BestFor("B", p); ok {
		t.Error("B must not learn its own route back")
	}
	for _, id := range []ID{"A", "C"} {
		if best, ok := s.BestFor(id, p); !ok || best.PeerAS != 65002 {
			t.Errorf("%s's best = %v, %v", id, best, ok)
		}
	}
}

func TestBestForPrefersShorterPath(t *testing.T) {
	s := newABC(t, nil)
	s.Advertise("B", rt("10.0.0.0/8", 65002, 100, 200))
	s.Advertise("C", rt("10.0.0.0/8", 65003, 100))
	best, ok := s.BestFor("A", mp("10.0.0.0/8"))
	if !ok || best.PeerAS != 65003 {
		t.Errorf("best = %v, want C's shorter path", best)
	}
	// B's own view excludes itself: C's route.
	bBest, _ := s.BestFor("B", mp("10.0.0.0/8"))
	if bBest.PeerAS != 65003 {
		t.Errorf("B's best = %v", bBest)
	}
	// C's view excludes C: B's route.
	cBest, _ := s.BestFor("C", mp("10.0.0.0/8"))
	if cBest.PeerAS != 65002 {
		t.Errorf("C's best = %v", cBest)
	}
}

func TestWithdrawFailsOver(t *testing.T) {
	s := newABC(t, nil)
	s.Advertise("B", rt("10.0.0.0/8", 65002))
	s.Advertise("C", rt("10.0.0.0/8", 65003, 999))
	p := mp("10.0.0.0/8")
	before := map[ID]bgp.Route{}
	for _, id := range []ID{"A", "B", "C"} {
		before[id], _ = s.BestFor(id, p)
	}
	if before["A"].PeerAS != 65002 || before["C"].PeerAS != 65002 {
		t.Fatalf("before the withdrawal A and C should prefer B: %+v", before)
	}
	touched, err := s.Withdraw("B", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(touched) != 1 || touched[0] != p {
		t.Fatalf("touched = %v, want [%v]", touched, p)
	}
	// A's best flips from B to C; C's best (B's route) disappears; B's best
	// (C's route) is unchanged.
	if best, ok := s.BestFor("A", p); !ok || best.PeerAS != 65003 {
		t.Errorf("A's best = %+v, %v; want C's route", best, ok)
	}
	if best, ok := s.BestFor("C", p); ok {
		t.Errorf("C's best = %+v, want none", best)
	}
	if best, ok := s.BestFor("B", p); !ok || !routeEq(best, before["B"]) {
		t.Errorf("B's best = %+v, %v; should be unchanged by B's own withdrawal", best, ok)
	}
}

func TestWithdrawLastRoute(t *testing.T) {
	s := newABC(t, nil)
	s.Advertise("B", rt("10.0.0.0/8", 65002))
	s.Withdraw("B", mp("10.0.0.0/8"))
	if _, ok := s.BestFor("A", mp("10.0.0.0/8")); ok {
		t.Error("prefix should be gone after last withdrawal")
	}
	if len(s.Prefixes()) != 0 {
		t.Errorf("Prefixes = %v", s.Prefixes())
	}
}

func TestIdempotentAdvertise(t *testing.T) {
	s := newABC(t, nil)
	r := rt("10.0.0.0/8", 65002)
	s.Advertise("B", r)
	touched, _ := s.Advertise("B", r)
	if len(touched) != 0 {
		t.Errorf("re-advertising the same route should touch nothing: %v", touched)
	}
}

func TestExportFilter(t *testing.T) {
	// B exports p4 to C but not to A (the paper's Figure 1b situation).
	p4 := mp("40.0.0.0/8")
	filter := func(adv, recv ID, _ uint32, r bgp.Route) bool {
		if adv == "B" && recv == "A" && r.Prefix == p4 {
			return false
		}
		return true
	}
	s := newABC(t, filter)
	s.Advertise("B", rt("40.0.0.0/8", 65002))
	if _, ok := s.BestFor("A", p4); ok {
		t.Error("export filter must hide p4 from A")
	}
	if _, ok := s.BestFor("C", p4); !ok {
		t.Error("C should still see p4")
	}
	reach := s.ReachableVia("A", "B")
	if reach.Contains(p4) {
		t.Error("ReachableVia must respect the export filter")
	}
}

func TestReachableVia(t *testing.T) {
	s := newABC(t, nil)
	s.Advertise("B", rt("10.0.0.0/8", 65002))
	s.Advertise("B", rt("20.0.0.0/8", 65002))
	s.Advertise("C", rt("30.0.0.0/8", 65003))
	viaB := s.ReachableVia("A", "B")
	if viaB.Len() != 2 || !viaB.Contains(mp("10.0.0.0/8")) || !viaB.Contains(mp("20.0.0.0/8")) {
		t.Errorf("ReachableVia(A,B) = %v", viaB)
	}
	if s.ReachableVia("A", "A").Len() != 0 {
		t.Error("a participant cannot reach prefixes via itself")
	}
	if s.ReachableVia("A", "Z").Len() != 0 {
		t.Error("unknown hop should yield empty set")
	}
}

func TestBestNextHopParticipant(t *testing.T) {
	s := newABC(t, nil)
	s.Advertise("B", rt("10.0.0.0/8", 65002, 1, 2))
	s.Advertise("C", rt("10.0.0.0/8", 65003))
	hop, ok := s.BestNextHopParticipant("A", mp("10.0.0.0/8"))
	if !ok || hop != "C" {
		t.Errorf("best next hop = %v, %v; want C", hop, ok)
	}
	hop, ok = s.BestNextHopParticipant("C", mp("10.0.0.0/8"))
	if !ok || hop != "B" {
		t.Errorf("C's best next hop = %v, %v; want B", hop, ok)
	}
	if _, ok := s.BestNextHopParticipant("A", mp("99.0.0.0/8")); ok {
		t.Error("unknown prefix should have no next hop")
	}
}

func TestRemoveParticipant(t *testing.T) {
	s := newABC(t, nil)
	s.Advertise("B", rt("10.0.0.0/8", 65002))
	touched := s.RemoveParticipant("B")
	if len(touched) != 1 || touched[0] != mp("10.0.0.0/8") {
		t.Errorf("removal touched %v, want B's one prefix", touched)
	}
	if _, ok := s.BestFor("A", mp("10.0.0.0/8")); ok {
		t.Error("B's routes must disappear with B")
	}
	if len(s.Participants()) != 2 {
		t.Errorf("participants = %v", s.Participants())
	}
}

func TestDuplicateParticipant(t *testing.T) {
	s := newABC(t, nil)
	if err := s.AddParticipant("A", 65009); err == nil {
		t.Error("duplicate participant should error")
	}
}

func TestUnknownParticipantErrors(t *testing.T) {
	s := newABC(t, nil)
	if _, err := s.Advertise("Z", rt("10.0.0.0/8", 1)); err == nil {
		t.Error("advertise from unknown participant should error")
	}
	if _, err := s.Withdraw("Z", mp("10.0.0.0/8")); err == nil {
		t.Error("withdraw from unknown participant should error")
	}
	if _, ok := s.AS("Z"); ok {
		t.Error("AS of unknown participant")
	}
	if s.Advertised("Z") != nil {
		t.Error("Advertised of unknown participant")
	}
}

func TestAdvertisedAndPrefixes(t *testing.T) {
	s := newABC(t, nil)
	s.Advertise("B", rt("20.0.0.0/8", 65002))
	s.Advertise("B", rt("10.0.0.0/8", 65002))
	got := s.Advertised("B")
	if len(got) != 2 || got[0] != mp("10.0.0.0/8") {
		t.Errorf("Advertised = %v", got)
	}
	if r, ok := s.AdvertisedRoute("B", mp("10.0.0.0/8")); !ok || r.PeerAS != 65002 {
		t.Errorf("AdvertisedRoute = %v, %v", r, ok)
	}
	all := s.Prefixes()
	if len(all) != 2 {
		t.Errorf("Prefixes = %v", all)
	}
}

func TestServerFilterASPath(t *testing.T) {
	s := newABC(t, nil)
	s.Advertise("B", rt("10.0.0.0/8", 65002, 43515))
	s.Advertise("C", rt("20.0.0.0/8", 65003, 15169))
	got, err := s.FilterASPath(`(^|.* )43515$`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != mp("10.0.0.0/8") {
		t.Errorf("FilterASPath = %v", got)
	}
	if _, err := s.FilterASPath("("); err == nil {
		t.Error("bad regexp should error")
	}
}

// TestRejectsNonIPv4 checks that the IPv4-only engine refuses what it
// cannot key rather than panicking or mis-keying it: a non-IPv4 prefix in
// an UPDATE or a bulk load is an error naming the prefix, nothing of that
// UPDATE lands, and every reader reports the prefix absent. An IPv4-mapped
// IPv6 prefix is refused too rather than keyed as its IPv4 twin.
func TestRejectsNonIPv4(t *testing.T) {
	s := newABC(t, nil)
	if _, err := s.Advertise("B", rt("10.0.0.0/8", 65002)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"2001:db8::/32", "::ffff:10.0.0.0/104", "::/0"} {
		r := rt("10.0.0.0/8", 65003)
		r.Prefix = mp(bad)
		mixed := []bgp.Route{rt("11.0.0.0/8", 65003), r}
		if touched, err := s.ApplyUpdateTouched("C", nil, mixed); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("advertising %s: touched %v, err %v; want an error naming it", bad, touched, err)
		}
		if _, err := s.ApplyUpdateTouched("B", []netip.Prefix{mp("10.0.0.0/8"), mp(bad)}, nil); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("withdrawing %s: err %v; want an error naming it", bad, err)
		}
		if err := s.Load("C", r); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("loading %s: err %v; want an error naming it", bad, err)
		}
		p := mp(bad)
		if _, ok := s.BestFor("A", p); ok {
			t.Errorf("BestFor(%s) found a route", bad)
		}
		if _, ok := s.BestNextHopParticipant("A", p); ok {
			t.Errorf("BestNextHopParticipant(%s) found one", bad)
		}
		if first, second := s.BestTwoIn("", p); first != "" || second != "" {
			t.Errorf("BestTwoIn(%s) = %q, %q", bad, first, second)
		}
		if s.Exports("C", "A", p) {
			t.Errorf("Exports(%s) is true", bad)
		}
		if _, ok := s.AdvertisedRoute("C", p); ok {
			t.Errorf("AdvertisedRoute(%s) found a route", bad)
		}
	}
	if _, err := s.ApplyUpdateTouched("C", nil, []bgp.Route{{}}); err == nil {
		t.Error("the invalid prefix was accepted")
	}
	// The refused UPDATEs left the table as the one IPv4 advertisement made
	// it: their IPv4 parts did not land either.
	if got := s.Prefixes(); len(got) != 1 || got[0] != mp("10.0.0.0/8") {
		t.Errorf("Prefixes = %v, want [10.0.0.0/8]", got)
	}
	if got := s.Advertised("C"); len(got) != 0 {
		t.Errorf("C advertises %v, want nothing", got)
	}
	if got := s.DrainTouched(); len(got) != 1 || got[0] != mp("10.0.0.0/8") {
		t.Errorf("touched = %v, want [10.0.0.0/8]", got)
	}
}
