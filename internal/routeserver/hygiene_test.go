package routeserver

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/netutil"
)

// TestDisplacedEmitterHandsPendingToSuccessor is the regression test for
// the displaced-drain race: a displaced emitter used to drain its pending
// prefix set and then drop it on the floor, so advertisements enqueued on
// the old emitter before its successor registered were silently lost. The
// test builds a stale emitter whose pending set holds a prefix the live
// session has never been sent, runs the drain loop on it, and asserts the
// prefix reaches the peer via the successor.
func TestDisplacedEmitterHandsPendingToSuccessor(t *testing.T) {
	fe, addr := newLiveRouteServer(t, nil)
	a := dialClient(t, addr, 65001, "10.0.0.1")

	var succ *peerEmitter
	waitFor(t, 5*time.Second, "A's emitter", func() bool {
		fe.mu.Lock()
		defer fe.mu.Unlock()
		succ = fe.emitters["A"]
		return succ != nil
	})

	// Advance the engine behind the frontend's back (no propagate): the
	// prefix is in the table but has never been emitted to A — exactly the
	// state of a change whose only emission record sits in a displaced
	// emitter's pending set.
	prefix := netip.MustParsePrefix("11.0.0.0/8")
	attrs := bgp.Intern(bgp.PathAttrs{
		NextHop: ma("192.0.2.9"),
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65002}}},
	})
	if _, err := fe.Server.ApplyUpdateTouched("B", nil,
		[]bgp.Route{{Prefix: prefix, Attrs: attrs, PeerAS: 65002, PeerID: ma("10.0.0.2")}}); err != nil {
		t.Fatal(err)
	}

	// A stale emitter for the same participant, as if an older session's
	// drain loop were still running after displacement, with the change
	// queued on it.
	old := &peerEmitter{
		id:      "A",
		peer:    succ.peer,
		lock:    succ.lock,
		pending: make(map[netutil.Prefix4]struct{}),
		wake:    make(chan struct{}, 1),
	}
	old.enqueue([]netutil.Prefix4{netutil.Prefix4From(prefix)})

	done := make(chan struct{})
	go func() {
		fe.runEmitter(old)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("displaced emitter's drain loop never exited")
	}

	// The handed-off prefix must reach the live session through the
	// successor's drain.
	a.waitForUpdate(t, func(u *bgp.Update) bool { return hasNLRI(u, prefix) })
}

// TestRejectedUpdateTearsDownSession covers the deprovision race: a peer
// whose participant was removed between session establishment and its next
// UPDATE used to stream routes into a black hole forever — the UPDATE was
// counted as rejected but the session stayed Established. Now the frontend
// answers with NOTIFICATION (Cease) and tears the session down.
func TestRejectedUpdateTearsDownSession(t *testing.T) {
	fe, addr := newLiveRouteServer(t, nil)
	a := dialClient(t, addr, 65001, "10.0.0.1")
	waitFor(t, 5*time.Second, "A established", func() bool {
		_, ok := fe.Speaker.Peer("10.0.0.1")
		return ok
	})

	// Deprovision A while its session is up: drop it from the BGP-ID
	// registry, so the next UPDATE finds no participant.
	fe.mu.Lock()
	delete(fe.byBGPID, ma("10.0.0.1"))
	fe.mu.Unlock()

	advertise(t, a, "11.0.0.0/8", 65001)

	waitFor(t, 5*time.Second, "session teardown after rejection", func() bool {
		select {
		case <-a.peer.Session.Done():
			return true
		default:
			return false
		}
	})
	if got := fe.mRejectedUpdates.Value(); got == 0 {
		t.Fatal("rejected update not counted")
	}
	// The refused routes must not be in the engine.
	if _, ok := fe.Server.BestFor("B", netip.MustParsePrefix("11.0.0.0/8")); ok {
		t.Fatal("rejected route reached the engine")
	}
}

// TestEstablishDuringReadvertiseConverges races Frontend.onEstablished
// (the late-joiner full dump) against ReadvertiseAll (the post-recompile
// re-enqueue of every prefix): a peer coming up mid-readvertise must end
// up holding the full Adj-RIB-Out. Run under -race this also checks the
// two paths share state safely.
func TestEstablishDuringReadvertiseConverges(t *testing.T) {
	fe, addr := newLiveRouteServer(t, nil)

	// B fills the table.
	b := dialClient(t, addr, 65002, "10.0.0.2")
	prefixes := make([]netip.Prefix, 40)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + i), 0, 0, 0}), 8)
		advertise(t, b, prefixes[i].String(), 65002)
	}
	waitFor(t, 10*time.Second, "table populated", func() bool {
		return len(fe.Server.Prefixes()) == len(prefixes)
	})

	// Hammer ReadvertiseAll while A's session comes up.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fe.ReadvertiseAll()
			}
		}
	}()
	a := dialClient(t, addr, 65001, "10.0.0.1")

	// A must converge to BestFor ground truth for every prefix.
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range prefixes {
		want, ok := fe.Server.BestFor("A", p)
		if !ok {
			t.Fatalf("no best route for %v", p)
		}
		for !a.holds(p) {
			if time.Now().After(deadline) {
				t.Fatalf("A never converged on %v (best %+v)", p, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
}

// holds reports whether the client's Adj-RIB-In currently contains the
// prefix (advertised and not since withdrawn).
func (c *testClient) holds(prefix netip.Prefix) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	held := false
	for _, u := range c.updates {
		if hasWithdrawn(u, prefix) {
			held = false
		}
		if hasNLRI(u, prefix) {
			held = true
		}
	}
	return held
}
