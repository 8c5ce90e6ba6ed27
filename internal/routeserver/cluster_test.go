package routeserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/faultnet"
	"sdx/internal/replog"
)

// TestClusterEquivalence is the tentpole property test: the same randomized
// burst sequence is fed (a) directly into a single-process Server via
// ApplyUpdateTouched and (b) through the replicated log over real TCP into four
// follower Frontends — one of which has its stream severed mid-run and must
// resume. Every participant's Adj-RIB-Out, rendered by every follower, must
// be byte-identical to the single-process server's.
func TestClusterEquivalence(t *testing.T) {
	const (
		nParts   = 8
		nWorkers = 4
		nBursts  = 300
	)
	rng := rand.New(rand.NewSource(42))

	type part struct {
		ID ID
		AS uint32
	}
	parts := make([]part, nParts)
	peerIDs := make([]netip.Addr, nParts)
	for i := range parts {
		parts[i] = part{ID: ID(fmt.Sprintf("P%d", i)), AS: uint32(65001 + i)}
		peerIDs[i] = netip.AddrFrom4([4]byte{172, 0, 0, byte(i + 1)})
	}
	newEngine := func() *Server {
		rs := New(nil)
		for _, p := range parts {
			if err := rs.AddParticipant(p.ID, p.AS); err != nil {
				t.Fatal(err)
			}
		}
		return rs
	}
	prefixPool := make([]netip.Prefix, 100)
	for i := range prefixPool {
		prefixPool[i] = netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/16, i%16))
	}

	// Reference: the single-process server, fed routes built by hand (the
	// followers go through RoutesFromUpdate, so the test also pins that
	// against an independent construction).
	ref := newEngine()

	// Cluster: one log streamed over TCP to four full replicas.
	log := replog.NewLog()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go (&replog.StreamServer{Log: log}).Serve(ln)

	workers := make([]*Frontend, nWorkers)
	consumers := make([]*replog.Consumer, nWorkers)
	stop := make(chan struct{})
	defer close(stop)
	var severDialer *faultnet.Dialer
	for i := range workers {
		w := NewFrontend(newEngine(), nil)
		workers[i] = w
		c := &replog.Consumer{
			Addr:       ln.Addr().String(),
			Apply:      w.Apply,
			MinBackoff: time.Millisecond,
			MaxBackoff: 10 * time.Millisecond,
		}
		if i == 0 {
			// Worker 0 loses its first connection mid-log and must resume.
			d := &faultnet.Dialer{}
			d.Arm = func(fc *faultnet.Conn) {
				if d.Dials() == 0 {
					fc.SeverAfterBytes(8192, -1)
				}
			}
			c.Dial = d.Dial
			severDialer = d
		}
		consumers[i] = c
		go c.Run(stop)
	}

	randomUpdate := func(pi int) *bgp.Update {
		u := &bgp.Update{}
		for n := rng.Intn(3); n > 0; n-- {
			u.Withdrawn = append(u.Withdrawn, prefixPool[rng.Intn(len(prefixPool))])
		}
		nAdv := rng.Intn(4)
		if nAdv > 0 {
			attrs := bgp.PathAttrs{
				Origin:  uint8(rng.Intn(3)),
				NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(pi + 1)}),
				ASPath: []bgp.ASPathSegment{{
					Type: bgp.ASSequence,
					ASNs: []uint32{uint32(65001 + pi), uint32(64512 + rng.Intn(64))},
				}},
			}
			if rng.Intn(2) == 0 {
				attrs.MED, attrs.HasMED = uint32(rng.Intn(100)), true
			}
			if rng.Intn(3) == 0 {
				attrs.Communities = []uint32{uint32(rng.Intn(1 << 16))}
			}
			u.Attrs = attrs
			for n := nAdv; n > 0; n-- {
				u.NLRI = append(u.NLRI, prefixPool[rng.Intn(len(prefixPool))])
			}
		}
		return u
	}

	for b := 0; b < nBursts; b++ {
		pi := rng.Intn(nParts)
		id := parts[pi].ID
		if rng.Intn(25) == 0 {
			// Occasional session loss: flush the participant everywhere.
			ref.FlushParticipant(id)
			log.Append(&replog.Entry{Kind: replog.KindFlush, From: string(id)})
			continue
		}
		u := randomUpdate(pi)
		// The cluster sees the update after a marshal/decode round trip;
		// put the reference through the same codec so attribute
		// normalization (e.g. prefix masking) cannot diverge.
		wire, err := bgp.MarshalAS4(u)
		if err != nil {
			t.Fatalf("burst %d: marshal: %v", b, err)
		}
		msg, err := bgp.DecodeAS4(wire)
		if err != nil {
			t.Fatalf("burst %d: decode: %v", b, err)
		}
		du := msg.(*bgp.Update)

		routes := make([]bgp.Route, len(du.NLRI))
		var attrs *bgp.PathAttrs
		if len(du.NLRI) > 0 {
			attrs = bgp.Intern(du.Attrs)
		}
		for i, nlri := range du.NLRI {
			routes[i] = bgp.Route{Prefix: nlri, Attrs: attrs, PeerAS: parts[pi].AS, PeerID: peerIDs[pi]}
		}
		if _, err := ref.ApplyUpdateTouched(id, du.Withdrawn, routes); err != nil {
			t.Fatalf("burst %d: reference apply: %v", b, err)
		}
		log.Append(&replog.Entry{Kind: replog.KindUpdate, From: string(id), PeerAS: parts[pi].AS, PeerID: peerIDs[pi], Update: du})
	}

	head := log.Head()
	deadline := time.Now().Add(15 * time.Second)
	for {
		done := true
		for _, c := range consumers {
			if c.Applied() < head {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for i, c := range consumers {
				t.Logf("worker %d applied %d of %d", i, c.Applied(), head)
			}
			t.Fatal("workers never caught up to the log head")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if severDialer.Dials() < 2 {
		t.Fatalf("worker 0 never resumed: %d dials", severDialer.Dials())
	}

	for _, p := range parts {
		want, err := AdjRIBOut(ref, p.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range workers {
			got, err := AdjRIBOut(w.Server, p.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("participant %s: worker %d Adj-RIB-Out differs from single-process server (%d vs %d bytes)",
					p.ID, i, len(got), len(want))
			}
		}
	}
}

// TestFrontendFansSessionsIntoLog drives live BGP sessions into a
// Frontend with a Log attached and checks the UPDATE lands in the log with
// the right attribution, that a deprovisioned participant is cut with Cease
// at its next UPDATE without that UPDATE being sequenced, that a session
// death appends a flush entry, that an originated route is an update entry
// stamped with the synthetic origin identity — and that the frontend applied
// exactly what it logged.
func TestFrontendFansSessionsIntoLog(t *testing.T) {
	log := replog.NewLog()
	rs := New(nil)
	for id, as := range map[ID]uint32{"A": 65001, "B": 65002} {
		if err := rs.AddParticipant(id, as); err != nil {
			t.Fatal(err)
		}
	}
	speaker := bgp.NewSpeaker(bgp.SessionConfig{LocalAS: 65000, LocalID: ma("10.0.0.100")})
	fe := NewFrontend(rs, speaker)
	fe.Log = log
	for bgpID, id := range map[string]ID{"10.0.0.1": "A", "10.0.0.2": "B"} {
		if err := fe.RegisterPeer(ma(bgpID), id); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := speaker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer speaker.Close()

	a := dialClient(t, addr.String(), 65001, "10.0.0.1")
	advertise(t, a, "11.0.0.0/8", 65001)

	waitFor(t, 5*time.Second, "UPDATE entry in log", func() bool { return log.Head() >= 1 })
	e, ok := log.Get(1)
	if !ok || e.Kind != replog.KindUpdate || e.From != "A" || e.PeerAS != 65001 {
		t.Fatalf("log entry 1 = %+v", e)
	}

	// Deprovision B mid-session: its next UPDATE must be refused and the
	// session torn down with Cease, never reaching the log.
	b := dialClient(t, addr.String(), 65002, "10.0.0.2")
	waitFor(t, 5*time.Second, "B established", func() bool {
		_, ok := speaker.Peer("10.0.0.2")
		return ok
	})
	rs.RemoveParticipant("B")
	advertise(t, b, "12.0.0.0/8", 65002)
	waitFor(t, 5*time.Second, "B torn down after rejection", func() bool {
		select {
		case <-b.peer.Session.Done():
			return true
		default:
			return false
		}
	})
	if fe.mRejectedUpdates.Value() == 0 {
		t.Fatal("rejection not counted")
	}

	// A's session death appends a flush at the tail.
	head := log.Head()
	a.speaker.Close()
	waitFor(t, 5*time.Second, "flush entry for A", func() bool {
		h := log.Head()
		if h <= head {
			return false
		}
		e, _ := log.Get(h)
		return e.Kind == replog.KindFlush && e.From == "A"
	})

	// An originated route is one more update entry, attributed to the
	// participant and stamped with its synthetic origin identity.
	if err := fe.Originate("A", mp("74.125.0.0/16"), ma("203.0.113.9")); err != nil {
		t.Fatal(err)
	}
	e, _ = log.Get(log.Head())
	if e.Kind != replog.KindUpdate || e.From != "A" || e.PeerAS != 65001 ||
		e.PeerID != originPeerID(65001) || len(e.Update.NLRI) != 1 || e.Update.NLRI[0] != mp("74.125.0.0/16") {
		t.Fatalf("originated route logged as %+v", e)
	}
	if _, ok := rs.AdvertisedRoute("A", mp("74.125.0.0/16")); !ok {
		t.Fatal("originated route was logged but not applied")
	}

	// B's rejected UPDATE (and its session's death) must not have landed.
	for seq := uint64(1); seq <= log.Head(); seq++ {
		e, _ := log.Get(seq)
		if e.From == "B" {
			t.Fatalf("entry for the deprovisioned participant reached the log at seq %d: %+v", seq, e)
		}
	}
	if fe.Applied() != log.Head() {
		t.Fatalf("frontend applied seq %d, log head %d", fe.Applied(), log.Head())
	}
}

// TestFrontendSerializesReactions pins the ordering contract: with three
// sessions advertising and compile points arriving concurrently, the
// quick-stage hook and the compile-point hook never run at the same time
// (each entry's apply and reaction are atomic with respect to every other
// entry), every input is sequenced exactly once, and at rest the frontend
// has applied exactly what its log holds.
func TestFrontendSerializesReactions(t *testing.T) {
	fe, addr := newLiveRouteServer(t, nil)
	fe.Log = replog.NewLog()
	var (
		busy                    atomic.Bool
		overlaps, quick, points atomic.Int64
	)
	hook := func(calls *atomic.Int64) {
		if !busy.CompareAndSwap(false, true) {
			overlaps.Add(1)
		}
		time.Sleep(20 * time.Microsecond) // widen the window another reaction would land in
		busy.Store(false)
		calls.Add(1)
	}
	fe.OnPrefixes = func([]netip.Prefix) { hook(&quick) }
	fe.OnMark = func() { hook(&points) }

	const sessions, perSession = 3, 40
	clients := [sessions]*testClient{
		dialClient(t, addr, 65001, "10.0.0.1"),
		dialClient(t, addr, 65002, "10.0.0.2"),
		dialClient(t, addr, 65003, "10.0.0.3"),
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perSession; n++ {
				err := c.peer.Send(&bgp.Update{
					Attrs: bgp.PathAttrs{
						NextHop: ma("192.0.2.9"),
						ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{uint32(65001 + i)}}},
					},
					NLRI: []netip.Prefix{mp(fmt.Sprintf("%d.%d.0.0/16", 20+i, n))},
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Compile points keep arriving for as long as the sessions' input does.
	// The last one is submitted after the last quick-stage reaction was
	// seen, so it queues behind that entry and returns with everything
	// applied.
	marks := int64(0)
	deadline := time.Now().Add(10 * time.Second)
	for drained := false; !drained && time.Now().Before(deadline); marks++ {
		drained = quick.Load() == sessions*perSession
		if err := fe.Mark(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	want := uint64(sessions*perSession + marks)
	if fe.Log.Head() != want || fe.Applied() != want {
		t.Errorf("log head %d, applied %d, want both %d", fe.Log.Head(), fe.Applied(), want)
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("reactions overlapped %d times", n)
	}
	if quick.Load() != sessions*perSession || points.Load() != marks {
		t.Errorf("quick-stage reactions %d (want %d), compile points %d (want %d)",
			quick.Load(), sessions*perSession, points.Load(), marks)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
