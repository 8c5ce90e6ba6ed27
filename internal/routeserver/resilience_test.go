package routeserver

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"sdx/internal/bgp"
)

// watchDowns wraps the frontend's OnDown so a test can wait until a downed
// session has been fully processed (flush included) before asserting on the
// engine's state.
func watchDowns(fe *Frontend) chan struct{} {
	downs := make(chan struct{}, 8)
	orig := fe.Speaker.OnDown
	fe.Speaker.OnDown = func(p *bgp.Peer, err error) {
		orig(p, err)
		downs <- struct{}{}
	}
	return downs
}

// TestFrontendPeerDownFlushesRoutes exercises the control-plane-failure leg
// of the route server: when a participant's BGP session dies, its routes
// must be flushed from the engine, best routes recomputed, and the other
// participants re-advertised the surviving alternatives (or sent
// withdrawals where no alternative exists).
func TestFrontendPeerDownFlushesRoutes(t *testing.T) {
	fe, addr := newLiveRouteServer(t, nil)
	downs := watchDowns(fe)
	a := dialClient(t, addr, 65001, "10.0.0.1")
	b := dialClient(t, addr, 65002, "10.0.0.2")
	c := dialClient(t, addr, 65003, "10.0.0.3")

	advertise(t, b, "10.0.0.0/8", 65002)
	advertise(t, b, "30.0.0.0/8", 65002)        // no backup: must be withdrawn
	advertise(t, c, "10.0.0.0/8", 65003, 65099) // longer path: backup

	a.waitForUpdate(t, func(u *bgp.Update) bool {
		return hasNLRI(u, mp("10.0.0.0/8")) && u.Attrs.FirstAS() == 65002
	})
	a.waitForUpdate(t, func(u *bgp.Update) bool {
		return hasNLRI(u, mp("30.0.0.0/8"))
	})
	// B never learns its own route back, so C's backup reaching B proves
	// the engine holds it before B dies.
	b.waitForUpdate(t, func(u *bgp.Update) bool {
		return hasNLRI(u, mp("10.0.0.0/8")) && u.Attrs.FirstAS() == 65003
	})

	// B's router dies. The frontend must flush B's routes and recompute.
	b.speaker.Close()
	select {
	case <-downs:
	case <-time.After(5 * time.Second):
		t.Fatal("B's session death never reached the frontend")
	}

	if _, ok := fe.Server.BestFor("A", mp("30.0.0.0/8")); ok {
		t.Error("30.0.0.0/8 still has a best route after its only advertiser died")
	}
	if best, ok := fe.Server.BestFor("A", mp("10.0.0.0/8")); !ok || best.PeerAS != 65003 {
		t.Errorf("best for 10.0.0.0/8 after failover = %+v, %v; want C's route", best, ok)
	}

	// A is re-advertised C's backup for 10/8 and sent a withdrawal for 30/8.
	a.waitForUpdate(t, func(u *bgp.Update) bool {
		return hasNLRI(u, mp("10.0.0.0/8")) && u.Attrs.FirstAS() == 65003
	})
	a.waitForUpdate(t, func(u *bgp.Update) bool {
		return hasWithdrawn(u, mp("30.0.0.0/8"))
	})
}

// TestFrontendDisplacedSessionKeepsRoutes is the companion regression test:
// when a participant RECONNECTS (same BGP identifier) rather than dying,
// the displaced old session's teardown must not flush the participant's
// routes out from under the live replacement.
func TestFrontendDisplacedSessionKeepsRoutes(t *testing.T) {
	fe, addr := newLiveRouteServer(t, nil)
	downs := watchDowns(fe)
	a := dialClient(t, addr, 65001, "10.0.0.1")
	b1 := dialClient(t, addr, 65002, "10.0.0.2")

	advertise(t, b1, "10.0.0.0/8", 65002)
	a.waitForUpdate(t, func(u *bgp.Update) bool {
		return hasNLRI(u, mp("10.0.0.0/8"))
	})

	// B reconnects under the same identifier: the fresh session displaces
	// the old one, whose teardown then races the replacement's arrival.
	b2 := dialClient(t, addr, 65002, "10.0.0.2")
	select {
	case <-downs:
	case <-time.After(5 * time.Second):
		t.Fatal("displaced session was never torn down")
	}

	// Give any wrongly emitted withdrawal time to arrive, then assert the
	// engine and A's RIB both kept the route.
	time.Sleep(50 * time.Millisecond)
	if best, ok := fe.Server.BestFor("A", mp("10.0.0.0/8")); !ok || best.PeerAS != 65002 {
		t.Errorf("best for 10.0.0.0/8 after displacement = %+v, %v; want B's route intact", best, ok)
	}
	a.mu.Lock()
	for _, u := range a.updates {
		for _, w := range u.Withdrawn {
			if w == mp("10.0.0.0/8") {
				t.Error("displaced session's teardown withdrew the live participant's route")
			}
		}
	}
	a.mu.Unlock()

	// The replacement session is live: routes it advertises still flow.
	advertise(t, b2, "20.0.0.0/8", 65002)
	a.waitForUpdate(t, func(u *bgp.Update) bool {
		return hasNLRI(u, mp("20.0.0.0/8"))
	})
}

// TestServerFlushParticipant unit-tests the engine-level flush: every
// prefix the participant advertised is withdrawn in one call, best routes
// recompute, and the participant stays registered for a future session.
func TestServerFlushParticipant(t *testing.T) {
	s := New(nil)
	for i, id := range []ID{"A", "B", "C"} {
		if err := s.AddParticipant(id, uint32(65001+i)); err != nil {
			t.Fatal(err)
		}
	}
	route := func(as uint32, prefix string, pathLen int) bgp.Route {
		asns := make([]uint32, pathLen)
		for i := range asns {
			asns[i] = as
		}
		return bgp.Route{
			Prefix: mp(prefix),
			Attrs: bgp.Intern(bgp.PathAttrs{
				NextHop: ma("192.0.2.9"),
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
			}),
			PeerAS: as,
		}
	}
	mustAdv := func(id ID, r bgp.Route) {
		t.Helper()
		if _, err := s.Advertise(id, r); err != nil {
			t.Fatal(err)
		}
	}
	mustAdv("B", route(65002, "10.0.0.0/8", 1))
	mustAdv("B", route(65002, "30.0.0.0/8", 1))
	mustAdv("C", route(65003, "10.0.0.0/8", 2))

	prefixes := make(map[netip.Prefix]bool)
	for _, p := range s.FlushParticipant("B") {
		prefixes[p] = true
	}
	if len(prefixes) != 2 || !prefixes[mp("10.0.0.0/8")] || !prefixes[mp("30.0.0.0/8")] {
		t.Errorf("flush touched %v, want exactly B's two prefixes", prefixes)
	}
	if best, ok := s.BestFor("A", mp("10.0.0.0/8")); !ok || best.PeerAS != 65003 {
		t.Errorf("best for 10.0.0.0/8 = %+v, %v; want failover to C", best, ok)
	}
	if _, ok := s.BestFor("A", mp("30.0.0.0/8")); ok {
		t.Error("30.0.0.0/8 survived its only advertiser's flush")
	}

	// The participant is still registered: a reconnecting router can
	// re-advertise without re-provisioning.
	mustAdv("B", route(65002, "30.0.0.0/8", 1))
	if _, ok := s.BestFor("A", mp("30.0.0.0/8")); !ok {
		t.Error("flushed participant could not re-advertise")
	}

	// What a session teardown allocates is linear in the flushed prefixes
	// and independent of how many participants would have received them. (A
	// per-receiver change list here once cost ≈125 MB for one
	// 200-participant sender.)
	const nPrefixes = 5000
	few := flushAllocBytes(t, 3, nPrefixes)
	many := flushAllocBytes(t, 100, nPrefixes)
	double := flushAllocBytes(t, 100, 2*nPrefixes)
	t.Logf("flush of %d prefixes: %d B among 3 participants, %d B among 100; %d B for %d prefixes",
		nPrefixes, few, many, double, 2*nPrefixes)
	if perPrefix := many / nPrefixes; perPrefix > 2048 {
		t.Errorf("flush allocated %d B per prefix among 100 participants, want ≤ 2048", perPrefix)
	}
	if many > few+few/4 {
		t.Errorf("flush allocation grew with participant count: %d B among 3, %d B among 100", few, many)
	}
	if double > 3*many {
		t.Errorf("flush allocation superlinear in prefixes: %d B for %d, %d B for %d",
			many, nPrefixes, double, 2*nPrefixes)
	}
}

// flushAllocBytes loads nPrefixes routes from one participant of an
// nParts-participant exchange and returns the bytes FlushParticipant
// allocates withdrawing them.
func flushAllocBytes(t *testing.T, nParts, nPrefixes int) uint64 {
	t.Helper()
	s := New(nil)
	for i := 0; i < nParts; i++ {
		if err := s.AddParticipant(ID(fmt.Sprintf("P%03d", i)), uint32(65001+i)); err != nil {
			t.Fatal(err)
		}
	}
	attrs := bgp.Intern(bgp.PathAttrs{
		NextHop: ma("192.0.2.9"),
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65001}}},
	})
	for i := 0; i < nPrefixes; i++ {
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		if err := s.Load("P000", bgp.Route{Prefix: prefix, Attrs: attrs, PeerAS: 65001}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	touched := s.FlushParticipant("P000")
	runtime.ReadMemStats(&after)
	if len(touched) != nPrefixes {
		t.Fatalf("flush touched %d prefixes, want %d", len(touched), nPrefixes)
	}
	return after.TotalAlloc - before.TotalAlloc
}
