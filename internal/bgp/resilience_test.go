package bgp

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdx/internal/faultnet"
	"sdx/internal/telemetry"
)

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSpeakerReplacementSurvivesOldTeardown is the regression test for the
// servePeer teardown bug: when a reconnecting router (same BGP identifier)
// establishes a replacement session, the displaced session's teardown must
// not delete the replacement from the peer map. Pre-fix, servePeer deleted
// s.peers[p.Key()] unconditionally, so the live replacement vanished and
// Broadcast silently skipped the peer forever.
func TestSpeakerReplacementSurvivesOldTeardown(t *testing.T) {
	server := NewSpeaker(SessionConfig{LocalAS: 65000, LocalID: ma("10.0.0.100")})
	established := make(chan *Peer, 4)
	downs := make(chan *Peer, 4)
	server.OnEstablished = func(p *Peer) { established <- p }
	server.OnDown = func(p *Peer, _ error) { downs <- p }
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	// Two client speakers sharing one BGP identifier: the second Dial is
	// "the router reconnected" from the server's point of view.
	cfg := SessionConfig{LocalAS: 65001, LocalID: ma("10.0.0.1")}
	client1 := NewSpeaker(cfg)
	defer client1.Close()
	if _, err := client1.Dial(addr.String()); err != nil {
		t.Fatal(err)
	}
	var p1 *Peer
	select {
	case p1 = <-established:
	case <-time.After(2 * time.Second):
		t.Fatal("first session not established")
	}

	client2 := NewSpeaker(cfg)
	defer client2.Close()
	if _, err := client2.Dial(addr.String()); err != nil {
		t.Fatal(err)
	}
	var p2 *Peer
	select {
	case p2 = <-established:
	case <-time.After(2 * time.Second):
		t.Fatal("replacement session not established")
	}

	// addPeer must have closed the displaced session, so its serve loop
	// unwinds and OnDown fires for p1 — without the client going away.
	select {
	case down := <-downs:
		if down != p1 {
			t.Fatalf("OnDown fired for %p, want the displaced session %p", down, p1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("displaced session was never torn down")
	}

	// The regression: after the old session's teardown, the replacement must
	// still be reachable under the shared identifier.
	got, ok := server.Peer(p2.Key())
	if !ok {
		t.Fatal("replacement peer vanished from the speaker after the displaced session's teardown")
	}
	if got != p2 {
		t.Fatalf("Peer(%q) = %p, want the replacement %p", p2.Key(), got, p2)
	}
}

// writeFailConn lets a test fail writes while reads keep flowing — the
// asymmetric failure that exposes the silent-keepalive-death bug.
type writeFailConn struct {
	net.Conn
	fail atomic.Bool
}

func (c *writeFailConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestKeepaliveSendFailureAbortsSession is the regression test for the
// keepalive goroutine swallowing send errors: with writes dead but reads
// alive, our keepalives stop reaching the peer while the peer's keepalives
// keep resetting our hold timer — so pre-fix, Run only returned ~holdTime
// later when the PEER's hold timer expired and it sent a NOTIFICATION. The
// fix aborts the session at the first failed KEEPALIVE send, so Run returns
// within about one keepalive interval with the send error as the cause.
func TestKeepaliveSendFailureAbortsSession(t *testing.T) {
	ca, cb := pipePair(t)
	wfc := &writeFailConn{Conn: ca}
	// 3s hold time -> keepalives every 1s; the peer's hold expiry would not
	// fire before ~3s, which is what the deadline below distinguishes.
	sa := NewSession(wfc, SessionConfig{LocalAS: 65001, LocalID: ma("10.0.0.1"), HoldTime: 3 * time.Second})
	sb := NewSession(cb, SessionConfig{LocalAS: 65002, LocalID: ma("10.0.0.2"), HoldTime: 3 * time.Second})
	errs := make(chan error, 2)
	go func() { errs <- sa.Handshake() }()
	go func() { errs <- sb.Handshake() }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("handshake: %v", err)
		}
	}
	go sb.Run(func(*Update) {})
	defer sb.Close()

	runDone := make(chan error, 1)
	go func() { runDone <- sa.Run(func(*Update) {}) }()
	wfc.fail.Store(true)

	start := time.Now()
	select {
	case err := <-runDone:
		if err == nil {
			t.Fatal("Run returned nil after a failed KEEPALIVE send")
		}
		if !strings.Contains(err.Error(), "KEEPALIVE") {
			t.Errorf("Run error = %v, want the KEEPALIVE send failure as cause", err)
		}
		if elapsed := time.Since(start); elapsed > 2500*time.Millisecond {
			t.Errorf("Run took %v to notice the dead channel; the hold timer beat the fix", elapsed)
		}
	case <-time.After(6 * time.Second):
		t.Fatal("Run never returned after keepalive sends started failing")
	}
}

// TestPersistentNeighborRedials exercises the tentpole's BGP leg: a
// persistent neighbor whose session is severed mid-life is redialed with
// backoff until re-established, and the redial metrics count the attempts.
func TestPersistentNeighborRedials(t *testing.T) {
	reg := telemetry.NewRegistry()
	server := NewSpeaker(SessionConfig{LocalAS: 65000, LocalID: ma("10.0.0.100")})
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	dialer := &faultnet.Dialer{}
	established := make(chan *Peer, 8)
	client := NewSpeaker(SessionConfig{
		LocalAS: 65001, LocalID: ma("10.0.0.1"),
		Metrics: NewMetrics(reg),
	})
	client.Dialer = dialer.Dial
	client.RedialMin = 5 * time.Millisecond
	client.RedialMax = 20 * time.Millisecond
	client.OnEstablished = func(p *Peer) { established <- p }
	defer client.Close()

	if err := client.AddNeighbor(addr.String()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-established:
	case <-time.After(5 * time.Second):
		t.Fatal("persistent neighbor never established")
	}

	// Cut the live channel; the redial loop must bring a fresh session up.
	dialer.Last().Sever()
	select {
	case <-established:
	case <-time.After(5 * time.Second):
		t.Fatal("session not re-established after sever")
	}
	if dialer.Dials() < 2 {
		t.Fatalf("dialer handed out %d conns, want at least 2", dialer.Dials())
	}

	// AddNeighbor twice is a configuration error; RemoveNeighbor stops the
	// loop so the address can be re-added.
	if err := client.AddNeighbor(addr.String()); err == nil {
		t.Error("duplicate AddNeighbor should fail")
	}
	client.RemoveNeighbor(addr.String())
	if err := client.AddNeighbor(addr.String()); err != nil {
		t.Errorf("re-adding a removed neighbor failed: %v", err)
	}

	waitFor(t, "redial metrics", func() bool {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		exp := sb.String()
		return strings.Contains(exp, "sdx_bgp_redial_attempts_total") &&
			strings.Contains(exp, "sdx_bgp_redials_total") &&
			strings.Contains(exp, "sdx_bgp_redial_backoff_seconds")
	})
}

// A persistent neighbor that cannot be reached counts every failed attempt
// and logs it with the address, the error and the next backoff.
func TestRedialFailuresCountedAndLogged(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	m := NewMetrics(telemetry.NewRegistry())
	client := NewSpeaker(SessionConfig{LocalAS: 65001, LocalID: ma("10.0.0.1"), Metrics: m})
	client.RedialMin = 5 * time.Millisecond
	client.RedialMax = 10 * time.Millisecond
	var mu sync.Mutex
	var lines []string
	client.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	defer client.Close()
	if err := client.AddNeighbor(addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "two failed redials", func() bool { return m.RedialFailures.Value() >= 2 })
	client.RemoveNeighbor(addr)

	mu.Lock()
	defer mu.Unlock()
	if len(lines) < 2 {
		t.Fatalf("Logf got %d lines, want one per failed attempt: %q", len(lines), lines)
	}
	for _, want := range []string{addr, "refused", "next attempt in"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("log line %q does not name %q", lines[0], want)
		}
	}
	if m.Redials.Value() != 0 {
		t.Errorf("Redials = %d, want 0: nothing was listening", m.Redials.Value())
	}
}

// TestInboundHandshakeFailuresSpaced opens many connections to a listening
// speaker and closes each before its OPEN: every failed handshake is counted,
// but the log gets one line, not one per connection.
func TestInboundHandshakeFailuresSpaced(t *testing.T) {
	m := NewMetrics(telemetry.NewRegistry())
	srv := NewSpeaker(SessionConfig{LocalAS: 65000, LocalID: ma("10.0.0.9"), Metrics: m})
	var mu sync.Mutex
	var lines []string
	srv.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const conns = 50
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	waitFor(t, "every handshake failed", func() bool { return m.HandshakeFailures.Value() == conns })

	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("Logf got %d lines for %d failed handshakes within %v, want 1: %q",
			len(lines), conns, handshakeLogEvery, lines)
	}
	if !strings.Contains(lines[0], "handshake from 127.0.0.1:") {
		t.Errorf("log line %q does not name the remote address", lines[0])
	}
}

// TestRedialBackoffScheduleDeterminism drives two identically seeded
// speakers against a dead address through fault dialers and checks they
// attempt in lockstep: the jittered schedule is a function of the seed, not
// of wall-clock accidents.
func TestRedialBackoffScheduleDeterminism(t *testing.T) {
	// A listener that is closed immediately: dials fail fast with refused
	// connections, so only the backoff schedule paces the loop.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	attempt := func(seed int64) int32 {
		var attempts atomic.Int32
		s := NewSpeaker(SessionConfig{LocalAS: 65001, LocalID: ma("10.0.0.1")})
		s.Dialer = func(addr string) (net.Conn, error) {
			attempts.Add(1)
			return net.Dial("tcp", addr)
		}
		s.RedialMin = 10 * time.Millisecond
		s.RedialMax = 40 * time.Millisecond
		s.RedialSeed = seed
		if err := s.AddNeighbor(dead); err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Millisecond)
		s.Close()
		return attempts.Load()
	}

	a, b := attempt(11), attempt(11)
	// Identical seeds sleep identical intervals; allow one attempt of
	// scheduling slop over the 300ms window.
	if diff := a - b; diff < -1 || diff > 1 {
		t.Errorf("identically seeded loops made %d and %d attempts", a, b)
	}
	if a < 4 {
		t.Errorf("only %d attempts in 300ms with a 10-40ms schedule", a)
	}
}
