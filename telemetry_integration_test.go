package sdx

import (
	"io"
	"net/http"
	"net/netip"
	"strings"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/packet"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
)

// TestTelemetryEndToEnd wires one registry through every layer the way
// sdx-controller does, exercises each, and asserts the served /metrics
// exposition carries at least one live metric from core, bgp, routeserver,
// and dataplane — the telemetry subsystem's acceptance path.
func TestTelemetryEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()

	// Route server + controller.
	rs := routeserver.New(nil)
	rs.EnableTelemetry(reg)
	opts := core.DefaultOptions()
	opts.Telemetry = reg
	ctrl := core.NewController(rs, opts)
	macA := netutil.MustParseMAC("02:0a:00:00:00:01")
	macB := netutil.MustParseMAC("02:0b:00:00:00:01")
	ipA := netip.MustParseAddr("172.31.0.1")
	ipB := netip.MustParseAddr("172.31.0.2")
	for _, p := range []core.Participant{
		{ID: "A", AS: 65001, Ports: []core.Port{{Number: 1, MAC: macA, RouterIP: ipA}}},
		{ID: "B", AS: 65002, Ports: []core.Port{{Number: 2, MAC: macB, RouterIP: ipB}}},
	} {
		if err := ctrl.AddParticipant(p); err != nil {
			t.Fatal(err)
		}
	}
	// A forwards web traffic to B, so B's advertisement forms an FEC.
	aOut := policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(80)), ctrl.FwdTo("B"))
	if err := ctrl.SetPolicies("A", nil, aOut); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Advertise("B", bgp.Route{
		Prefix: netip.MustParsePrefix("93.184.0.0/16"),
		Attrs:  bgp.Intern(bgp.PathAttrs{NextHop: ipB, ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65002}}}}),
		PeerAS: 65002,
		PeerID: ipB,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Compile(); err != nil {
		t.Fatal(err)
	}

	// A live BGP session against a speaker carrying the shared metrics,
	// feeding the route server through a Frontend wired the way the daemons
	// wire it (OnPrefixes only).
	server := bgp.NewSpeaker(bgp.SessionConfig{
		LocalAS: 65000,
		LocalID: netip.MustParseAddr("10.0.0.100"),
		Metrics: bgp.NewMetrics(reg),
	})
	fe := routeserver.NewFrontend(rs, server)
	touched := make(chan []netip.Prefix, 1)
	fe.OnPrefixes = func(p []netip.Prefix) {
		select {
		case touched <- p:
		default: // the session-teardown flush at test exit
		}
	}
	if err := fe.RegisterPeer(ipA, "A"); err != nil {
		t.Fatal(err)
	}
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := bgp.NewSpeaker(bgp.SessionConfig{LocalAS: 65001, LocalID: ipA})
	peer, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := peer.Send(&bgp.Update{
		Attrs: *bgp.Intern(bgp.PathAttrs{NextHop: ipA, ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65001}}}}),
		NLRI:  []netip.Prefix{netip.MustParsePrefix("198.51.0.0/16")},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-touched:
	case <-time.After(3 * time.Second):
		t.Fatal("the UPDATE never reached OnPrefixes")
	}

	// A fabric switch sharing the registry.
	sw := dataplane.NewSwitch(1)
	sw.AttachPort(1, func([]byte) {})
	sw.AttachPort(2, func([]byte) {})
	sw.EnableTelemetry(reg)
	sw.Table.Add(&dataplane.FlowEntry{
		Match:    policy.MatchAll.Port(1),
		Priority: 1,
		Actions:  []openflow.Action{openflow.Output(2)},
	})
	// Two identical frames: the first misses the microflow cache and the
	// second hits it, so both cache counters carry live values.
	frame := packet.NewUDP(macA, macB, ipA, ipB, 4000, 80, []byte("x")).Serialize()
	for i := 0; i < 2; i++ {
		if err := sw.Inject(1, frame); err != nil {
			t.Fatal(err)
		}
	}

	// Serve and scrape.
	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	got := string(body)
	for _, want := range []string{
		"sdx_core_compiles_total 1",
		`sdx_bgp_sessions{state="Established"} 1`,
		// One direct Advertise plus one UPDATE through the Frontend, each
		// changing one prefix's decision.
		"sdx_routeserver_advertisements_total 2",
		"sdx_routeserver_best_changes_total 2",
		"sdx_dataplane_table_hits_total 2",
		"sdx_dataplane_cache_hits_total 1",
		"sdx_dataplane_cache_misses_total 1",
		"sdx_dataplane_cache_invalidations_total 1",
		"sdx_dataplane_cache_entries 1",
		"sdx_core_vnh_pool_used",
		"sdx_core_fecs 1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", got)
	}
}
