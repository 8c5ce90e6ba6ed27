package core

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/dataplane"
	"sdx/internal/faultnet"
	"sdx/internal/policy"
	"sdx/internal/replog"
	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
)

// failoverController builds a figure-1 controller with participants and
// policies but NO routes: in the cluster topology every route arrives via
// the replicated log, so each replica starts from the same empty table.
func failoverController(t *testing.T) *Controller {
	t.Helper()
	rs := routeserver.New(nil)
	c := NewController(rs, DefaultOptions())
	add := func(p Participant) {
		t.Helper()
		if err := c.AddParticipant(p); err != nil {
			t.Fatal(err)
		}
	}
	add(Participant{ID: "A", AS: 65001, Ports: []Port{
		{Number: 1, MAC: macA1, RouterIP: netip.MustParseAddr("172.31.0.1")}}})
	add(Participant{ID: "B", AS: 65002, Ports: []Port{
		{Number: 2, MAC: macB1, RouterIP: netip.MustParseAddr("172.31.0.2")},
		{Number: 3, MAC: macB2, RouterIP: netip.MustParseAddr("172.31.0.3")}}})
	add(Participant{ID: "C", AS: 65003, Ports: []Port{
		{Number: 4, MAC: macC1, RouterIP: netip.MustParseAddr("172.31.0.4")}}})
	aOut := policy.Par(
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(80)), c.FwdTo("B")),
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(443)), c.FwdTo("C")),
	)
	if err := c.SetPolicies("A", nil, aOut); err != nil {
		t.Fatal(err)
	}
	low := netip.MustParsePrefix("0.0.0.0/1")
	high := netip.MustParsePrefix("128.0.0.0/1")
	bIn := policy.Par(
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.SrcIP(low)), c.Deliver(2)),
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.SrcIP(high)), c.Deliver(3)),
	)
	if err := c.SetPolicies("B", bIn, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

// failoverReplica is one controller replica — a follower frontend driving a
// Replica — consuming the shared log over TCP, with an OpenFlow listener it
// opens only while active.
type failoverReplica struct {
	rep      *Replica
	fe       *routeserver.Frontend
	consumer *replog.Consumer
	stop     chan struct{}
	stopped  sync.Once
	done     chan struct{}
}

// halt stops the replica's consumer and waits for its goroutine to exit,
// so nothing touches the test after it completes.
func (fr *failoverReplica) halt() {
	fr.stopped.Do(func() { close(fr.stop) })
	<-fr.done
}

func newFailoverReplica(t *testing.T, logAddr string, reg *telemetry.Registry) *failoverReplica {
	t.Helper()
	ctrl := failoverController(t)
	srv := NewSwitchServer(reg)
	rep := NewReplica(ctrl, srv)
	rep.EnableTelemetry(reg)
	fe := routeserver.NewFrontend(ctrl.RouteServer(), nil)
	rep.Drive(fe)
	fr := &failoverReplica{
		rep:  rep,
		fe:   fe,
		stop: make(chan struct{}),
		done: make(chan struct{}),
		consumer: &replog.Consumer{
			Addr:       logAddr,
			Apply:      fe.Apply,
			MinBackoff: time.Millisecond,
			MaxBackoff: 10 * time.Millisecond,
		},
	}
	go func() {
		defer close(fr.done)
		if err := fr.consumer.Run(fr.stop); err != nil {
			t.Errorf("replica consumer: %v", err)
		}
	}()
	t.Cleanup(fr.halt)
	return fr
}

// serveOF opens an OpenFlow listener for the replica and accepts switches
// until the listener closes.
func (fr *failoverReplica) serveOF(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go fr.rep.Switches.Serve(conn)
		}
	}()
	return ln
}

// TestChaosClusterFailover kills the active controller mid-churn and
// promotes a standby that has been replaying the same log. The victim
// switch re-homes to the standby; after the churn settles, its flow table
// must be byte-identical to a control switch attached to a reference
// replica that never failed. Determinism makes this possible: primary,
// standby, and reference compile at the same KindMark log positions, so
// all three hold identical desired state (including VNH assignment).
func TestChaosClusterFailover(t *testing.T) {
	log := replog.NewLog()
	logLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer logLn.Close()
	go (&replog.StreamServer{Log: log}).Serve(logLn)
	logAddr := logLn.Addr().String()

	regPrimary := telemetry.NewRegistry()
	regStandby := telemetry.NewRegistry()
	primary := newFailoverReplica(t, logAddr, regPrimary)
	standby := newFailoverReplica(t, logAddr, regStandby)
	reference := newFailoverReplica(t, logAddr, telemetry.NewRegistry())

	// Seed the base table at seq 1 so every replica commits a compilation
	// before any switch attaches.
	log.Append(&replog.Entry{Kind: replog.KindMark})

	primaryLn := primary.serveOF(t)
	referenceLn := reference.serveOF(t)
	defer referenceLn.Close()

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
	waitFor("replicas to commit the seed compilation", func() bool {
		return primary.fe.Applied() >= 1 && standby.fe.Applied() >= 1 && reference.fe.Applied() >= 1
	})

	// The victim dials whichever replica is currently active, through a
	// fault injector so the dead primary's connections can be severed.
	var activeAddr atomic.Value
	activeAddr.Store(primaryLn.Addr().String())
	ofDialer := &faultnet.Dialer{}
	victim := chaosSwitch(3)
	victimStop := make(chan struct{})
	defer close(victimStop)
	go victim.RunController(func() (net.Conn, error) { return ofDialer.Dial(activeAddr.Load().(string)) },
		victimStop, dataplane.ReconnectConfig{MinBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond, Seed: 3})

	// The control replica: attached to the never-failed reference.
	control := chaosSwitch(2)
	controlStop := make(chan struct{})
	defer close(controlStop)
	go control.RunController(func() (net.Conn, error) { return net.Dial("tcp", referenceLn.Addr().String()) },
		controlStop, dataplane.ReconnectConfig{MinBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond, Seed: 7})

	waitFor("victim to attach to the primary", func() bool { return primary.rep.Switches.Switches() == 1 })
	waitFor("control to attach to the reference", func() bool { return reference.rep.Switches.Switches() == 1 })

	// Churn: routes from B and C land in the log, with periodic compile
	// marks. Halfway through, the primary dies and the standby takes over.
	appendRoute := func(from string, as uint32, routerIP string, pfx netip.Prefix, pathLen int) {
		asns := make([]uint32, pathLen)
		for i := range asns {
			asns[i] = as + uint32(i)
		}
		u := &bgp.Update{
			Attrs: bgp.PathAttrs{
				NextHop: netip.MustParseAddr(routerIP),
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
			},
			NLRI: []netip.Prefix{pfx},
		}
		log.Append(&replog.Entry{Kind: replog.KindUpdate, From: from, PeerAS: as, PeerID: netip.MustParseAddr(routerIP), Update: u})
	}
	for i := 0; i < 16; i++ {
		pfx := netip.MustParsePrefix(fmt.Sprintf("%d.0.0.0/8", 60+i))
		if i%2 == 0 {
			appendRoute("B", 65002, "172.31.0.2", pfx, 1+i%3)
		} else {
			appendRoute("C", 65003, "172.31.0.4", pfx, 1+(i+1)%3)
		}
		if i%5 == 4 {
			log.Append(&replog.Entry{Kind: replog.KindMark})
		}
		if i == 7 {
			// Kill the primary mid-churn: it stops applying the log, its
			// listener closes, and the victim's channel is cut.
			primary.halt()
			primaryLn.Close()
			ofDialer.SeverAll()
			// Promote the standby and open its OpenFlow listener; the
			// victim's redial loop re-homes to it.
			standby.rep.Promote()
			standbyLn := standby.serveOF(t)
			defer standbyLn.Close()
			activeAddr.Store(standbyLn.Addr().String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// One failed participant session, replicated as a flush, then the
	// final compile point.
	log.Append(&replog.Entry{Kind: replog.KindFlush, From: "C"})
	log.Append(&replog.Entry{Kind: replog.KindMark})

	head := log.Head()
	waitFor("standby and reference to drain the log", func() bool {
		return standby.fe.Applied() == head && reference.fe.Applied() == head
	})
	waitFor("victim to re-home to the standby", func() bool {
		return standby.rep.Switches.Switches() == 1
	})

	// Convergence: the victim — whose controller died mid-churn — must end
	// up byte-identical to the control switch on the never-failed replica.
	var v, ctl string
	waitFor("flow tables to converge across failover", func() bool {
		v, ctl = tableLines(victim), tableLines(control)
		return v != "" && v == ctl
	})
	if v != ctl || v == "" {
		t.Fatalf("tables diverged after failover:\nvictim:\n%s\n\ncontrol:\n%s", v, ctl)
	}

	// The promotion was recorded, and the standby reconciled the victim's
	// table on reattach (resync, not wipe).
	if !standby.rep.Promoted() {
		t.Error("standby not marked promoted")
	}
	if standby.rep.Switches.mResyncs.Value() == 0 {
		t.Error("no resync recorded on the standby despite the victim re-homing")
	}
	if ofDialer.Dials() < 2 {
		t.Errorf("victim dialed %d times; the failover should force at least 2", ofDialer.Dials())
	}
}
