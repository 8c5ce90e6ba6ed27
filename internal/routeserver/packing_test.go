package routeserver

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/telemetry"
)

// newLoadedRouteServer builds a route server whose engine holds nPrefixes
// routes (attributes drawn from nGroups distinct sets) loaded from a
// participant with no live session, plus participants A and B for clients.
// The speaker carries live metrics so tests can count UPDATEs on the wire.
func newLoadedRouteServer(t *testing.T, nPrefixes, nGroups int) (*Frontend, *bgp.Metrics, string) {
	t.Helper()
	server := New(nil)
	for i, id := range []ID{"A", "B", "L"} {
		if err := server.AddParticipant(id, uint32(65001+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nPrefixes; i++ {
		rank := i % nGroups
		err := server.Load("L", bgp.Route{
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
			Attrs: bgp.Intern(bgp.PathAttrs{
				ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence,
					ASNs: []uint32{65003, uint32(65100 + rank)}}},
				NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(rank + 1)}),
			}),
			PeerAS: 65003,
			PeerID: ma("10.0.0.3"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	metrics := bgp.NewMetrics(telemetry.NewRegistry())
	speaker := bgp.NewSpeaker(bgp.SessionConfig{
		LocalAS: 65000, LocalID: ma("10.0.0.100"), Metrics: metrics,
	})
	fe := NewFrontend(server, speaker)
	fe.RegisterPeer(ma("10.0.0.1"), "A")
	fe.RegisterPeer(ma("10.0.0.2"), "B")
	addr, err := speaker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(speaker.Close)
	return fe, metrics, addr.String()
}

func countNLRI(c *testClient) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, u := range c.updates {
		n += len(u.NLRI)
	}
	return n
}

func waitNLRI(t *testing.T, c *testClient, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for countNLRI(c) < want {
		if time.Now().After(deadline) {
			t.Fatalf("client received %d NLRI, want %d", countNLRI(c), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReadvertiseAllPacking is the issue's headline packing bound: a full
// re-advertisement of 1000 prefixes to 2 peers — 2000 route announcements —
// must leave the speaker in at most 5% of the message count the unpacked
// one-UPDATE-per-route emitter would have used.
func TestReadvertiseAllPacking(t *testing.T) {
	const nPrefixes, nGroups = 1000, 10
	fe, metrics, addr := newLoadedRouteServer(t, nPrefixes, nGroups)
	a := dialClient(t, addr, 65001, "10.0.0.1")
	b := dialClient(t, addr, 65002, "10.0.0.2")

	// Initial table dumps (also packed; counted separately below).
	waitNLRI(t, a, nPrefixes)
	waitNLRI(t, b, nPrefixes)
	dumpMsgs := metrics.UpdatesOut.Value()
	if limit := uint64(2 * nPrefixes * 5 / 100); dumpMsgs > limit {
		t.Errorf("initial dumps used %d UPDATEs, want <= %d", dumpMsgs, limit)
	}

	fe.ReadvertiseAll()
	waitNLRI(t, a, 2*nPrefixes)
	waitNLRI(t, b, 2*nPrefixes)
	sent := metrics.UpdatesOut.Value() - dumpMsgs
	// Unpacked, this re-advertisement is 2000 messages; 5% is 100. With 10
	// attribute groups the packed emitter needs ~2 messages per peer-group.
	if limit := uint64(2 * nPrefixes * 5 / 100); sent > limit {
		t.Errorf("ReadvertiseAll sent %d UPDATEs for %d routes, want <= %d", sent, 2*nPrefixes, limit)
	}
	if sent == 0 {
		t.Error("ReadvertiseAll sent nothing")
	}
}

// TestFrontendRejectedUpdateSurfaced closes the silent-rejection hole: an
// UPDATE the engine refuses (its participant was deprovisioned while the
// session was still up) must increment the rejection counter and log one
// line naming the participant, the peer and the error, and must not disturb
// other sessions.
func TestFrontendRejectedUpdateSurfaced(t *testing.T) {
	fe, addr := newLiveRouteServer(t, nil)
	var mu sync.Mutex
	var lines []string
	fe.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}

	a := dialClient(t, addr, 65001, "10.0.0.1")
	b := dialClient(t, addr, 65002, "10.0.0.2")

	// Session up and working first.
	advertise(t, b, "10.0.0.0/8", 65002)
	a.waitForUpdate(t, func(u *bgp.Update) bool { return len(u.NLRI) == 1 })

	// The race the counter exists for: the participant is deprovisioned
	// while its router still has a live session and keeps talking.
	fe.Server.RemoveParticipant("B")
	advertise(t, b, "20.0.0.0/8", 65002)

	logged := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lines...)
	}
	deadline := time.Now().Add(3 * time.Second)
	for fe.mRejectedUpdates.Value() == 0 || len(logged()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rejected update was not counted and logged: %d counted, lines %q",
				fe.mRejectedUpdates.Value(), logged())
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := logged()
	if len(got) != 1 {
		t.Fatalf("want one rejection line, got %q", got)
	}
	for _, want := range []string{"participant B", "peer 10.0.0.2", `unknown participant "B"`} {
		if !strings.Contains(got[0], want) {
			t.Errorf("rejection line %q does not name %q", got[0], want)
		}
	}

	// Other participants are unaffected.
	advertise(t, a, "30.0.0.0/8", 65001)
	if _, ok := fe.Server.BestFor("C", mp("30.0.0.0/8")); !ok {
		// BestFor fills lazily; poll briefly since A's update is async.
		deadline = time.Now().Add(3 * time.Second)
		for {
			if _, ok := fe.Server.BestFor("C", mp("30.0.0.0/8")); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("healthy session stopped working after a rejection")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
