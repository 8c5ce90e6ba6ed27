package routeserver

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"sdx/internal/bgp"
)

// testClient is a participant border router: a BGP speaker that records the
// updates the route server sends it.
type testClient struct {
	speaker *bgp.Speaker
	peer    *bgp.Peer

	mu      sync.Mutex
	updates []*bgp.Update
}

func dialClient(t *testing.T, addr string, as uint32, id string) *testClient {
	t.Helper()
	c := &testClient{}
	c.speaker = bgp.NewSpeaker(bgp.SessionConfig{
		LocalAS: as,
		LocalID: ma(id),
	})
	c.speaker.OnUpdate = func(_ *bgp.Peer, u *bgp.Update) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.updates = append(c.updates, u)
	}
	peer, err := c.speaker.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.peer = peer
	t.Cleanup(c.speaker.Close)
	return c
}

// hasNLRI reports whether an update advertises the prefix. The frontend's
// coalescing emitter may pack unrelated prefixes sharing attributes into one
// UPDATE, so predicates check membership, not exact message shape.
func hasNLRI(u *bgp.Update, prefix netip.Prefix) bool {
	for _, n := range u.NLRI {
		if n == prefix {
			return true
		}
	}
	return false
}

// hasWithdrawn reports whether an update withdraws the prefix.
func hasWithdrawn(u *bgp.Update, prefix netip.Prefix) bool {
	for _, w := range u.Withdrawn {
		if w == prefix {
			return true
		}
	}
	return false
}

func (c *testClient) waitForUpdate(t *testing.T, pred func(*bgp.Update) bool) *bgp.Update {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		for _, u := range c.updates {
			if pred(u) {
				c.mu.Unlock()
				return u
			}
		}
		c.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("expected update not received")
	return nil
}

func newLiveRouteServer(t *testing.T, nextHop NextHopResolver) (*Frontend, string) {
	t.Helper()
	server := New(nil)
	for i, id := range []ID{"A", "B", "C"} {
		if err := server.AddParticipant(id, uint32(65001+i)); err != nil {
			t.Fatal(err)
		}
	}
	speaker := bgp.NewSpeaker(bgp.SessionConfig{LocalAS: 65000, LocalID: ma("10.0.0.100")})
	fe := NewFrontend(server, speaker)
	fe.NextHop = nextHop
	for i, id := range []ID{"A", "B", "C"} {
		addr := netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		if err := fe.RegisterPeer(addr, id); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := speaker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(speaker.Close)
	return fe, addr.String()
}

// waitEstablished waits until the route server has established each
// participant's session: the speaker holds it and the frontend has sent its
// catch-up dump. dialClient returns when the client's side of the handshake
// completes, which can precede both. onEstablished creates the peer's
// Adj-RIB-Out while holding its emit lock and keeps the lock until the dump
// is sent, so taking the lock after the Adj-RIB-Out appears waits the dump out.
func waitEstablished(t *testing.T, fe *Frontend, ids ...ID) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for _, id := range ids {
		for {
			fe.mu.Lock()
			_, ok := fe.adjOut[id]
			fe.mu.Unlock()
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("route server never established %s's session", id)
			}
			time.Sleep(time.Millisecond)
		}
		lock := fe.emitLock(id)
		lock.Lock()
		lock.Unlock()
	}
}

func advertise(t *testing.T, c *testClient, prefix string, asns ...uint32) {
	t.Helper()
	err := c.peer.Send(&bgp.Update{
		Attrs: *bgp.Intern(bgp.PathAttrs{
			NextHop: ma("192.0.2.9"),
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		}),
		NLRI: []netip.Prefix{mp(prefix)},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFrontendReAdvertisesBestRoutes(t *testing.T) {
	fe, addr := newLiveRouteServer(t, nil)
	a := dialClient(t, addr, 65001, "10.0.0.1")
	b := dialClient(t, addr, 65002, "10.0.0.2")
	c := dialClient(t, addr, 65003, "10.0.0.3")

	advertise(t, b, "10.0.0.0/8", 65002)

	// A and C receive the route; B does not get its own route back.
	for _, cl := range []*testClient{a, c} {
		u := cl.waitForUpdate(t, func(u *bgp.Update) bool {
			return hasNLRI(u, mp("10.0.0.0/8"))
		})
		if u.Attrs.FirstAS() != 65002 {
			t.Errorf("re-advertised AS path starts with %d", u.Attrs.FirstAS())
		}
	}
	b.mu.Lock()
	for _, u := range b.updates {
		for _, n := range u.NLRI {
			if n == mp("10.0.0.0/8") {
				t.Error("B received its own route back")
			}
		}
	}
	b.mu.Unlock()

	// The engine saw it too.
	if best, ok := fe.Server.BestFor("A", mp("10.0.0.0/8")); !ok || best.PeerAS != 65002 {
		t.Errorf("engine best for A = %v, %v", best, ok)
	}
}

func TestFrontendWithdrawalFailover(t *testing.T) {
	fe, addr := newLiveRouteServer(t, nil)
	a := dialClient(t, addr, 65001, "10.0.0.1")
	b := dialClient(t, addr, 65002, "10.0.0.2")
	c := dialClient(t, addr, 65003, "10.0.0.3")
	_ = fe

	advertise(t, b, "10.0.0.0/8", 65002)
	advertise(t, c, "10.0.0.0/8", 65003, 65099) // longer path: backup

	a.waitForUpdate(t, func(u *bgp.Update) bool {
		return hasNLRI(u, mp("10.0.0.0/8")) && u.Attrs.FirstAS() == 65002
	})

	// B withdraws; A must be re-advertised C's route.
	if err := b.peer.Send(&bgp.Update{Withdrawn: []netip.Prefix{mp("10.0.0.0/8")}}); err != nil {
		t.Fatal(err)
	}
	a.waitForUpdate(t, func(u *bgp.Update) bool {
		return hasNLRI(u, mp("10.0.0.0/8")) && u.Attrs.FirstAS() == 65003
	})
}

func TestFrontendVNHRewriting(t *testing.T) {
	vnh := ma("172.16.0.7")
	_, addr := newLiveRouteServer(t, func(recv ID, prefix netip.Prefix, r bgp.Route) netip.Addr {
		return vnh
	})
	a := dialClient(t, addr, 65001, "10.0.0.1")
	b := dialClient(t, addr, 65002, "10.0.0.2")

	advertise(t, b, "10.0.0.0/8", 65002)
	u := a.waitForUpdate(t, func(u *bgp.Update) bool { return len(u.NLRI) == 1 })
	if u.Attrs.NextHop != vnh {
		t.Errorf("next hop = %v, want VNH %v", u.Attrs.NextHop, vnh)
	}
}

func TestFrontendLateJoinerGetsTable(t *testing.T) {
	_, addr := newLiveRouteServer(t, nil)
	b := dialClient(t, addr, 65002, "10.0.0.2")
	advertise(t, b, "10.0.0.0/8", 65002)
	advertise(t, b, "20.0.0.0/8", 65002)
	time.Sleep(100 * time.Millisecond) // let the server absorb the routes

	a := dialClient(t, addr, 65001, "10.0.0.1")
	seen := map[netip.Prefix]bool{}
	deadline := time.Now().Add(3 * time.Second)
	for len(seen) < 2 && time.Now().Before(deadline) {
		a.mu.Lock()
		for _, u := range a.updates {
			for _, p := range u.NLRI {
				seen[p] = true
			}
		}
		a.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
	if !seen[mp("10.0.0.0/8")] || !seen[mp("20.0.0.0/8")] {
		t.Errorf("late joiner saw %v", seen)
	}
}

func TestFrontendOriginate(t *testing.T) {
	fe, addr := newLiveRouteServer(t, nil)
	if err := fe.Server.AddParticipant("D", 65004); err != nil {
		t.Fatal(err)
	}
	fe.Ownership = func(p ID, prefix netip.Prefix) bool {
		return p == "D" && prefix == mp("74.125.1.0/24")
	}

	a := dialClient(t, addr, 65001, "10.0.0.1")

	// Rejected: D does not own this prefix.
	if err := fe.Originate("D", mp("8.8.8.0/24"), ma("203.0.113.9")); err == nil {
		t.Error("ownership check should reject foreign prefix")
	}
	// Accepted: the anycast service prefix.
	if err := fe.Originate("D", mp("74.125.1.0/24"), ma("203.0.113.9")); err != nil {
		t.Fatal(err)
	}
	u := a.waitForUpdate(t, func(u *bgp.Update) bool {
		return hasNLRI(u, mp("74.125.1.0/24"))
	})
	if u.Attrs.OriginAS() != 65004 {
		t.Errorf("originated AS path ends with %d, want 65004", u.Attrs.OriginAS())
	}

	// And withdraw.
	if err := fe.WithdrawOrigin("D", mp("74.125.1.0/24")); err != nil {
		t.Fatal(err)
	}
	a.waitForUpdate(t, func(u *bgp.Update) bool {
		return hasWithdrawn(u, mp("74.125.1.0/24"))
	})
}

// TestFrontendOnPrefixesHook pins the one contract the frontend offers the
// controller: every touched prefix reaches OnPrefixes, and the hook has
// RETURNED before the prefix is re-advertised (§5.1: the compiler mints the
// fresh virtual next hop first, then the route server marshals the UPDATE
// carrying it).
func TestFrontendOnPrefixesHook(t *testing.T) {
	p := mp("10.0.0.0/8")
	var mu sync.Mutex
	var batches [][]netip.Prefix
	hookDone := false
	var resolvedEarly bool
	fe, addr := newLiveRouteServer(t, func(_ ID, prefix netip.Prefix, route bgp.Route) netip.Addr {
		mu.Lock()
		defer mu.Unlock()
		if prefix == p && !hookDone {
			resolvedEarly = true
		}
		return route.NextHop()
	})
	fe.OnPrefixes = func(touched []netip.Prefix) {
		// Long enough that an emitter racing the hook would resolve first.
		time.Sleep(50 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		batches = append(batches, touched)
		hookDone = true
	}
	a := dialClient(t, addr, 65001, "10.0.0.1")
	b := dialClient(t, addr, 65002, "10.0.0.2")
	// A late-registered A would get the prefix from its catch-up dump,
	// which is not ordered after OnPrefixes.
	waitEstablished(t, fe, "A", "B")
	advertise(t, b, "10.0.0.0/8", 65002)
	a.waitForUpdate(t, func(u *bgp.Update) bool { return hasNLRI(u, p) })

	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 1 || len(batches[0]) != 1 || batches[0][0] != p {
		t.Errorf("OnPrefixes batches = %v, want one batch of [%v]", batches, p)
	}
	if resolvedEarly {
		t.Error("prefix was re-advertised before OnPrefixes returned")
	}
}

func TestFrontendRejectsUnknownRouter(t *testing.T) {
	_, addr := newLiveRouteServer(t, nil)
	// BGP ID 10.0.0.99 is not registered; the session should be torn down.
	c := bgp.NewSpeaker(bgp.SessionConfig{LocalAS: 65099, LocalID: ma("10.0.0.99")})
	defer c.Close()
	peer, err := c.Dial(addr)
	if err != nil {
		return // rejected during handshake is equally acceptable
	}
	select {
	case <-peer.Session.Done():
	case <-time.After(3 * time.Second):
		t.Fatal("unregistered router session was not closed")
	}
}
