package routeserver

import (
	"testing"

	"sdx/internal/bgp"
)

const rsAS = 65000

func routeWithCommunities(prefix string, as uint32, comms ...uint32) bgp.Route {
	r := rt(prefix, as)
	// Interned attribute sets are shared: copy, modify, re-intern.
	a := *r.Attrs
	a.Communities = comms
	r.Attrs = bgp.Intern(a)
	return r
}

func newCommunityServer(t *testing.T) *Server {
	t.Helper()
	s := newABC(t, nil)
	s.SetRouteExportPolicy(CommunityExportPolicy(rsAS))
	return s
}

func TestCommunityValue(t *testing.T) {
	if Community(65000, 65002) != 65000<<16|65002 {
		t.Error("Community packing wrong")
	}
}

func TestCommunityNoAnnounceToAnyone(t *testing.T) {
	s := newCommunityServer(t)
	s.Advertise("B", routeWithCommunities("10.0.0.0/8", 65002, Community(0, 0)))
	for _, id := range []ID{"A", "C"} {
		if _, ok := s.BestFor(id, mp("10.0.0.0/8")); ok {
			t.Errorf("(0,0) route leaked to %v", id)
		}
	}
}

func TestCommunityPerPeerBlock(t *testing.T) {
	s := newCommunityServer(t)
	// Block export to A (AS 65001) only.
	s.Advertise("B", routeWithCommunities("10.0.0.0/8", 65002, Community(0, 65001)))
	if _, ok := s.BestFor("A", mp("10.0.0.0/8")); ok {
		t.Error("(0,peerAS) route leaked to the blocked peer")
	}
	if _, ok := s.BestFor("C", mp("10.0.0.0/8")); !ok {
		t.Error("route should still export to other peers")
	}
	// The SDX reach filter sees the same view.
	if s.ReachableVia("A", "B").Contains(mp("10.0.0.0/8")) {
		t.Error("ReachableVia must respect community blocks")
	}
	if !s.ReachableVia("C", "B").Contains(mp("10.0.0.0/8")) {
		t.Error("ReachableVia over-filtered")
	}
}

func TestCommunityWhitelist(t *testing.T) {
	s := newCommunityServer(t)
	// Announce ONLY to C (AS 65003).
	s.Advertise("B", routeWithCommunities("10.0.0.0/8", 65002, Community(rsAS, 65003)))
	if _, ok := s.BestFor("A", mp("10.0.0.0/8")); ok {
		t.Error("whitelisted route leaked outside the whitelist")
	}
	if _, ok := s.BestFor("C", mp("10.0.0.0/8")); !ok {
		t.Error("whitelisted peer should receive the route")
	}
}

func TestCommunityPlainRouteExportsEverywhere(t *testing.T) {
	s := newCommunityServer(t)
	s.Advertise("B", routeWithCommunities("10.0.0.0/8", 65002, Community(65002, 12345)))
	for _, id := range []ID{"A", "C"} {
		if _, ok := s.BestFor(id, mp("10.0.0.0/8")); !ok {
			t.Errorf("route with unrelated communities should export to %v", id)
		}
	}
}

func TestCommunityFallbackToOtherCandidate(t *testing.T) {
	s := newCommunityServer(t)
	// B's shorter route is hidden from A; A must fall back to C's route.
	s.Advertise("B", routeWithCommunities("10.0.0.0/8", 65002, Community(0, 65001)))
	s.Advertise("C", rt("10.0.0.0/8", 65003, 65003, 65003)) // longer path
	best, ok := s.BestFor("A", mp("10.0.0.0/8"))
	if !ok || best.PeerAS != 65003 {
		t.Errorf("A's best = %v, %v; want C's fallback", best, ok)
	}
	// B's own view hides nothing extra: B's best excludes itself -> C.
	best, _ = s.BestFor("C", mp("10.0.0.0/8"))
	if best.PeerAS != 65002 {
		t.Errorf("C's best = %v; the block only applies to A", best)
	}
}

func TestHasExportPolicyWithCommunities(t *testing.T) {
	s := newABC(t, nil)
	if s.HasExportPolicy() {
		t.Error("fresh server should have no export policy")
	}
	s.SetRouteExportPolicy(CommunityExportPolicy(rsAS))
	if !s.HasExportPolicy() {
		t.Error("route-level policy must disable reach-filter sharing")
	}
}

// TestFilterHidesEverythingFromUnregisteredReceiver pins the export rule
// for a receiver the registry does not know: without a filter it sees
// routes like anyone else, but through a filter — even one that allows
// everything, installed by New or by SetRouteExportPolicy — it sees nothing,
// since the filter is handed the receiver's AS.
func TestFilterHidesEverythingFromUnregisteredReceiver(t *testing.T) {
	allowAll := func(ID, ID, uint32, bgp.Route) bool { return true }
	p := mp("10.0.0.0/8")
	for _, tc := range []struct {
		name     string
		s        *Server
		wantSeen bool
	}{
		{"no-filter", newABC(t, nil), true},
		{"New", newABC(t, allowAll), false},
		{"SetRouteExportPolicy", newCommunityServer(t), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			if _, err := s.Advertise("B", rt("10.0.0.0/8", 65002)); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.BestFor("A", p); !ok {
				t.Fatal("registered receiver A lost B's route")
			}
			_, best := s.BestFor("Z", p)
			hop, nh := s.BestNextHopParticipant("Z", p)
			for what, got := range map[string]bool{
				"BestFor":                best,
				"BestNextHopParticipant": nh && hop == "B",
				"Exports":                s.Exports("B", "Z", p),
				"ReachableVia":           s.ReachableVia("Z", "B").Contains(p),
			} {
				if got != tc.wantSeen {
					t.Errorf("%s for unregistered Z = %v, want %v", what, got, tc.wantSeen)
				}
			}
		})
	}
}
