package e2e_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdx/e2e"
)

// failoverConfig: A receives, B announces; A's outbound policy makes the
// compiled table nontrivial, so a promoted standby has something to resync.
const failoverConfig = `{
  "localAS": 65000,
  "routerID": "10.255.255.254",
  "participants": [
    {"id": "A", "as": 65001, "ports": [
      {"number": 1, "mac": "02:0a:00:00:00:01", "routerIP": "172.31.0.1"}],
     "outboundExpr": "(match(dstport=80) >> fwd(B)) + (match(dstport=443) >> fwd(C))"},
    {"id": "B", "as": 65002, "ports": [
      {"number": 2, "mac": "02:0b:00:00:00:01", "routerIP": "172.31.0.2"}]},
    {"id": "C", "as": 65003, "ports": [
      {"number": 3, "mac": "02:0c:00:00:00:01", "routerIP": "172.31.0.3"}]}
  ]
}`

// TestE2EFailover runs every role of the replicated deployment as a real
// sdx-controller process: a leader terminating BGP and streaming its input
// log (no switch pointed at it), the active follower the switch dials, and a
// standby follower probing the active one. The leader must re-advertise
// VNH-rewritten routes to the participants, all three replicas must sit at
// the same sequence number, and a SIGKILL of the active controller must end
// with the standby promoted and the switch re-homed and resynced.
func TestE2EFailover(t *testing.T) {
	skipIfShort(t)
	bins, err := e2e.Binaries("sdx-controller", "sdx-bgpd", "sdx-switch")
	if err != nil {
		t.Fatal(err)
	}
	cfgPath, err := e2e.WriteConfig(failoverConfig)
	if err != nil {
		t.Fatal(err)
	}
	tcp := func() string {
		t.Helper()
		addr, err := e2e.FreeTCPAddr()
		if err != nil {
			t.Fatal(err)
		}
		return addr
	}
	start := func(name, bin string, args ...string) *e2e.Daemon {
		t.Helper()
		d, err := e2e.StartDaemon(name, bins[bin], args...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
		return d
	}
	waitLog := func(d *e2e.Daemon, pattern string) {
		t.Helper()
		if _, err := d.WaitLog(pattern, 15*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitMetric := func(addr, series string, pred func(float64) bool) float64 {
		t.Helper()
		v, err := e2e.WaitMetric(addr, series, pred, 15*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	bgpAddr, logAddr, ofAddr := tcp(), tcp(), tcp()
	leaderTel, activeTel, standbyTel := tcp(), tcp(), tcp()

	leader := start("leader", "sdx-controller", "-config", cfgPath,
		"-bgp-listen", bgpAddr, "-of-listen", tcp(), "-log-listen", logAddr,
		"-reoptimize-after", "300ms", "-telemetry-addr", leaderTel)
	waitLog(leader, `route server listening`)
	// The active controller and its standby share one OpenFlow address: the
	// standby binds it only after the active one has died.
	active := start("active", "sdx-controller", "-config", cfgPath,
		"-log-addr", logAddr, "-of-listen", ofAddr, "-telemetry-addr", activeTel)
	waitLog(active, `openflow listening`)
	standby := start("standby", "sdx-controller", "-config", cfgPath,
		"-log-addr", logAddr, "-of-listen", ofAddr, "-telemetry-addr", standbyTel,
		"-primary-addr", ofAddr, "-probe-interval", "100ms")
	waitLog(standby, `probing primary`)

	swArgs := []string{"-controller", ofAddr, "-dpid", "1",
		"-reconnect-min-backoff", "50ms", "-reconnect-max-backoff", "200ms"}
	for port := 1; port <= 3; port++ {
		listen, err := e2e.FreeUDPAddr()
		if err != nil {
			t.Fatal(err)
		}
		peer, err := e2e.FreeUDPAddr()
		if err != nil {
			t.Fatal(err)
		}
		swArgs = append(swArgs, "-port", fmt.Sprintf("%d=%s/%s", port, listen, peer))
	}
	sw := start("switch", "sdx-switch", swArgs...)
	waitLog(sw, `connected to controller`)

	receiver := start("receiver", "sdx-bgpd", "-routeserver", bgpAddr, "-as", "65001", "-id", "172.31.0.1")
	waitLog(receiver, `established with route server`)
	start("announcer", "sdx-bgpd", "-routeserver", bgpAddr, "-as", "65002", "-id", "172.31.0.2",
		"-announce", "93.184.0.0/16")

	// The leader applies what it sequences, so the participant hears the
	// route back with a virtual next hop.
	waitLog(receiver, `rib: 93\.184\.0\.0/16 via 172\.16\.`)

	// At rest (the quiescence compile point included) all three replicas
	// have applied the same sequence and the followers lag by nothing.
	const appliedSeq = "sdx_core_replica_applied_seq"
	waitLog(leader, `compile .*fecs=1`)
	head := waitMetric(leaderTel, "sdx_replog_head_seq", func(v float64) bool { return v >= 3 })
	atHead := func(v float64) bool { return v == head }
	waitMetric(leaderTel, appliedSeq, atHead)
	for _, tel := range []string{activeTel, standbyTel} {
		waitMetric(tel, appliedSeq, atHead)
		waitMetric(tel, `sdx_replog_lag{role="follower"}`, func(v float64) bool { return v == 0 })
	}
	if v, _, _ := e2e.ScrapeMetric(standbyTel, "sdx_core_replica_active"); v != 0 {
		t.Fatalf("standby active before the primary died")
	}

	active.Kill()
	waitLog(standby, `promoting at log seq`)
	waitMetric(standbyTel, "sdx_core_replica_active", func(v float64) bool { return v == 1 })
	waitMetric(standbyTel, "sdx_core_resyncs_total", func(v float64) bool { return v >= 1 })
	connects := func() (n int) {
		for _, l := range sw.Logs() {
			if strings.Contains(l, "connected to controller") {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(15 * time.Second); connects() < 2; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("switch connected %d times, want the re-home to make it 2", connects())
		}
	}
}
