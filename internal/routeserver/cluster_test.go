package routeserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/faultnet"
	"sdx/internal/replog"
)

func TestShardOfStableAndInRange(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for i := 0; i < 100; i++ {
			id := ID(fmt.Sprintf("P%02d", i))
			s := ShardOf(id, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", id, n, s)
			}
			if s != ShardOf(id, n) {
				t.Fatalf("ShardOf(%q, %d) unstable", id, n)
			}
		}
	}
	// All shards of a reasonably sized cluster should get members.
	used := map[int]bool{}
	for i := 0; i < 64; i++ {
		used[ShardOf(ID(fmt.Sprintf("P%02d", i)), 4)] = true
	}
	if len(used) != 4 {
		t.Fatalf("64 participants landed on %d of 4 shards", len(used))
	}
}

// TestClusterEquivalence is the tentpole property test: the same randomized
// burst sequence is fed (a) directly into a single-process Server via
// ApplyUpdateTouched and (b) through the replicated log over real TCP into four
// sharded workers — one of which has its stream severed mid-run and must
// resume. Every participant's Adj-RIB-Out, rendered by the worker owning
// its shard, must be byte-identical to the single-process server's.
func TestClusterEquivalence(t *testing.T) {
	const (
		nParts   = 8
		nWorkers = 4
		nBursts  = 300
	)
	rng := rand.New(rand.NewSource(42))

	parts := make([]ClusterParticipant, nParts)
	peerIDs := make([]netip.Addr, nParts)
	for i := range parts {
		parts[i] = ClusterParticipant{ID: ID(fmt.Sprintf("P%d", i)), AS: uint32(65001 + i)}
		peerIDs[i] = netip.AddrFrom4([4]byte{172, 0, 0, byte(i + 1)})
	}
	prefixPool := make([]netip.Prefix, 100)
	for i := range prefixPool {
		prefixPool[i] = netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/16, i%16))
	}

	// Reference: the single-process server, fed routes built by hand (the
	// workers go through RoutesFromUpdate, so the test also pins that
	// against an independent construction).
	ref := New(nil)
	for _, p := range parts {
		if err := ref.AddParticipant(p.ID, p.AS); err != nil {
			t.Fatal(err)
		}
	}

	// Cluster: one log streamed over TCP to four full replicas.
	log := replog.NewLog()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go (&replog.StreamServer{Log: log}).Serve(ln)

	workers := make([]*Worker, nWorkers)
	consumers := make([]*replog.Consumer, nWorkers)
	stop := make(chan struct{})
	defer close(stop)
	var severDialer *faultnet.Dialer
	for i := range workers {
		w, err := NewWorker(i, nWorkers, parts)
		if err != nil {
			t.Fatal(err)
		}
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
			log.AppendFlush(string(id))
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
		log.AppendUpdate(string(id), parts[pi].AS, peerIDs[pi], du)
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
		w := workers[ShardOf(p.ID, nWorkers)]
		if !w.Owns(p.ID) {
			t.Fatalf("shard routing inconsistent for %s", p.ID)
		}
		want, err := AdjRIBOut(ref, p.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AdjRIBOut(w.Server, p.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("participant %s: worker %d Adj-RIB-Out differs from single-process server (%d vs %d bytes)",
				p.ID, w.Index, len(got), len(want))
		}
	}
}

// TestLogFrontendFansSessionsIntoLog drives a live BGP session into a
// LogFrontend and checks the UPDATE lands in the log with the right
// attribution, that a deregistered (deprovisioned) peer is cut with Cease
// at its next UPDATE, and that a session death appends a flush entry.
func TestLogFrontendFansSessionsIntoLog(t *testing.T) {
	log := replog.NewLog()
	speaker := bgp.NewSpeaker(bgp.SessionConfig{LocalAS: 65000, LocalID: ma("10.0.0.100")})
	lf := NewLogFrontend(log, speaker)
	lf.RegisterPeer(ma("10.0.0.1"), "A")
	lf.RegisterPeer(ma("10.0.0.2"), "B")
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
	lf.DeregisterPeer(ma("10.0.0.2"))
	advertise(t, b, "12.0.0.0/8", 65002)
	waitFor(t, 5*time.Second, "B torn down after rejection", func() bool {
		select {
		case <-b.peer.Session.Done():
			return true
		default:
			return false
		}
	})
	if lf.Rejected() == 0 {
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
	// B's rejected UPDATE must not have landed.
	for seq := uint64(1); seq <= log.Head(); seq++ {
		e, _ := log.Get(seq)
		if e.From == "B" && e.Kind == replog.KindUpdate {
			t.Fatalf("rejected UPDATE reached the log at seq %d", seq)
		}
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
