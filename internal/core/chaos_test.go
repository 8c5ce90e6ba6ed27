package core

import (
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/dataplane"
	"sdx/internal/faultnet"
	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
)

// tableLines renders a switch's flow table as sorted "priority match
// actions" lines — everything that defines forwarding behaviour, nothing
// that doesn't (packet/byte counters differ between replicas by
// construction).
func tableLines(sw *dataplane.Switch) string {
	var lines []string
	for _, e := range sw.Table.Entries() {
		lines = append(lines, fmt.Sprintf("%d %v %v", e.Priority, e.Match, e.Actions))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// chaosSwitch builds one fabric replica with the figure-1 port layout and
// no sinks (the chaos test asserts on tables, not traffic).
func chaosSwitch(dpid uint64) *dataplane.Switch {
	sw := dataplane.NewSwitch(dpid)
	for _, p := range []uint16{1, 2, 3, 4} {
		sw.AttachPort(p, func([]byte) {})
	}
	return sw
}

// TestChaosControlPlaneConvergence is the tentpole's end-to-end fault
// test: one controller drives two replica fabric switches while both
// control channels — the OpenFlow channel of one switch (the victim) and a
// participant's BGP session — are killed and restored repeatedly
// mid-churn. The second switch (the control) never loses its channel, so
// it IS the never-failed run; after the dust settles the victim's flow
// table must be byte-identical to the control's.
//
// Sharing one controller between the replicas is load-bearing: VNH and
// VMAC assignment is history-dependent (pool order, FEC identity
// preservation), so two independent controller runs do not produce
// comparable tables — but one controller's desired state pushed over a
// faulty channel and a clean one must converge to the same bytes.
func TestChaosControlPlaneConvergence(t *testing.T) {
	regCore := telemetry.NewRegistry()
	regVictim := telemetry.NewRegistry()
	c := figure1(t, DefaultOptions())
	rs := c.RouteServer()

	srv := NewSwitchServer(regCore)
	srv.HandlePacketIn = c.HandlePacketIn

	// churnMu serializes every compile-and-push against the BGP-driven
	// fast path, the same serialization the controller daemon applies.
	var churnMu sync.Mutex
	pushFast := func(touched []netip.Prefix) {
		churnMu.Lock()
		defer churnMu.Unlock()
		fast, err := c.FastReact(touched)
		if err != nil {
			t.Errorf("fast path: %v", err)
			return
		}
		if err := srv.PushFastAll(fast); err != nil {
			t.Errorf("pushing fast rules: %v", err)
		}
	}
	recompile := func() {
		churnMu.Lock()
		defer churnMu.Unlock()
		res, err := c.Compile()
		if err != nil {
			t.Errorf("compile: %v", err)
			return
		}
		if err := srv.SetBase(res); err != nil {
			t.Errorf("set base: %v", err)
		}
	}

	// The fabric-facing listener: every accepted connection is one switch.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.Serve(conn)
		}
	}()

	// The BGP channel: a route-server frontend on the controller side and a
	// persistent-neighbor speaker playing participant B's border router,
	// dialing through a fault injector.
	rsSpeaker := bgp.NewSpeaker(bgp.SessionConfig{LocalAS: 65000, LocalID: netip.MustParseAddr("10.0.0.100")})
	fe := routeserver.NewFrontend(rs, rsSpeaker)
	fe.NextHop = c.NextHopFor
	fe.OnPrefixes = pushFast
	if err := fe.RegisterPeer(netip.MustParseAddr("172.31.0.2"), "B"); err != nil {
		t.Fatal(err)
	}
	bgpAddr, err := rsSpeaker.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rsSpeaker.Close()

	bgpDialer := &faultnet.Dialer{}
	var annMu sync.Mutex
	var announced []netip.Prefix
	router := bgp.NewSpeaker(bgp.SessionConfig{LocalAS: 65002, LocalID: netip.MustParseAddr("172.31.0.2")})
	router.Dialer = bgpDialer.Dial
	router.RedialMin = 5 * time.Millisecond
	router.RedialMax = 20 * time.Millisecond
	router.OnEstablished = func(p *bgp.Peer) {
		// A real border router re-announces its RIB after a session flap.
		annMu.Lock()
		defer annMu.Unlock()
		for _, pfx := range announced {
			p.Send(&bgp.Update{
				Attrs: *bgp.Intern(bgp.PathAttrs{
					NextHop: netip.MustParseAddr("172.31.0.2"),
					ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65002}}},
				}),
				NLRI: []netip.Prefix{pfx},
			})
		}
	}
	defer router.Close()
	if err := router.AddNeighbor(bgpAddr.String()); err != nil {
		t.Fatal(err)
	}
	announce := func(pfx netip.Prefix) {
		annMu.Lock()
		announced = append(announced, pfx)
		annMu.Unlock()
		router.Broadcast(&bgp.Update{
			Attrs: *bgp.Intern(bgp.PathAttrs{
				NextHop: netip.MustParseAddr("172.31.0.2"),
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65002}}},
			}),
			NLRI: []netip.Prefix{pfx},
		})
	}

	// Seed the base table before either switch attaches.
	recompile()

	// The control replica: a clean TCP channel that never fails.
	control := chaosSwitch(2)
	ctrlStop := make(chan struct{})
	defer close(ctrlStop)
	go control.RunController(func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
		ctrlStop, dataplane.ReconnectConfig{MinBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond, Seed: 7})

	// The victim replica: same controller, but dialed through the fault
	// injector so the channel can be severed on demand.
	victim := chaosSwitch(3)
	victim.EnableTelemetry(regVictim)
	ofDialer := &faultnet.Dialer{}
	victimStop := make(chan struct{})
	defer close(victimStop)
	go victim.RunController(func() (net.Conn, error) { return ofDialer.Dial(ln.Addr().String()) },
		victimStop, dataplane.ReconnectConfig{MinBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond, Seed: 3})

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("both switches to attach", func() bool { return srv.Switches() == 2 })
	waitFor("BGP session to establish", func() bool { return len(router.Peers()) > 0 })

	// Churn: new routes arrive over the live BGP channel and directly at
	// the engine, with periodic full recompilations — while both channels
	// are killed and (by the reconnect loops) restored mid-stream.
	for i := 0; i < 12; i++ {
		pfx := netip.MustParsePrefix(fmt.Sprintf("%d.0.0.0/8", 60+i))
		if i%3 == 0 {
			announce(pfx) // BGP channel -> frontend -> fast path
		} else {
			churnMu.Lock()
			changes, err := rs.Advertise("C", routeFrom(65003, "172.31.0.4", pfx, 1))
			churnMu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			pushFast(changes)
		}
		switch i {
		case 3, 8:
			ofDialer.SeverAll() // kill the victim's OpenFlow channel
		case 5:
			bgpDialer.SeverAll() // kill the BGP channel
		case 7:
			recompile()
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Let the BGP channel come back (its flush-and-reannounce settles the
	// engine), then commit one final compilation.
	waitFor("BGP session to re-establish", func() bool {
		return len(router.Peers()) > 0 && bgpDialer.Dials() >= 2
	})
	time.Sleep(50 * time.Millisecond) // drain in-flight re-announcements
	recompile()

	// Convergence: the victim — which lost its channel twice mid-churn —
	// must end up with a flow table byte-identical to the never-failed
	// control replica's.
	var v, ctl string
	waitFor("flow tables to converge", func() bool {
		v, ctl = tableLines(victim), tableLines(control)
		return v != "" && v == ctl
	})
	if v != ctl || v == "" {
		t.Fatalf("tables diverged:\nvictim:\n%s\n\ncontrol:\n%s", v, ctl)
	}

	// The victim reattached against committed state, so reconciliation ran
	// and its instruments moved.
	if srv.mResyncs.Value() == 0 {
		t.Error("no resync was recorded despite the victim reattaching")
	}
	var sb strings.Builder
	if err := regCore.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	coreExp := sb.String()
	for _, name := range []string{
		"sdx_core_resyncs_total",
		"sdx_core_resync_replayed_rules_total",
		"sdx_core_resync_stale_rules_total",
		"sdx_core_resync_duration_seconds",
		"sdx_core_switches_connected",
	} {
		if !strings.Contains(coreExp, name) {
			t.Errorf("controller exposition is missing %s", name)
		}
	}
	sb.Reset()
	if err := regVictim.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	victimExp := sb.String()
	for _, name := range []string{
		"sdx_dataplane_reconnect_attempts_total",
		"sdx_dataplane_reconnects_total",
		"sdx_dataplane_reconnect_backoff_seconds",
		"sdx_dataplane_controller_connected",
	} {
		if !strings.Contains(victimExp, name) {
			t.Errorf("victim exposition is missing %s", name)
		}
	}
	if ofDialer.Dials() < 3 {
		t.Errorf("victim dialed %d times; the severs should have forced at least 3", ofDialer.Dials())
	}
}
