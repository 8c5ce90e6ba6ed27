package core

import (
	"net/netip"
	"testing"

	"sdx/internal/netutil"
	"sdx/internal/routeserver"
)

// TestVRFOverlappingPrefixesCompile: the multi-tenant core property — two
// tenants advertise the SAME private prefix, and compilation must keep the
// copies apart: each tenant domain resolves the prefix to its own FEC and
// VMAC, and the two never alias.
func TestVRFOverlappingPrefixesCompile(t *testing.T) {
	rs := routeserver.New(nil)
	c := NewController(rs, DefaultOptions())
	add := func(id ID, as uint32, vrf VRF, port uint16, mac string, ip string) {
		t.Helper()
		err := c.AddParticipant(Participant{ID: id, AS: as, VRF: vrf, Ports: []Port{
			{Number: port, MAC: netutil.MustParseMAC(mac), RouterIP: netip.MustParseAddr(ip)}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	add("t1a", 65101, "t1", 1, "02:01:00:00:00:01", "172.31.1.1")
	add("t1b", 65102, "t1", 2, "02:01:00:00:00:02", "172.31.1.2")
	add("t2a", 65201, "t2", 3, "02:02:00:00:00:01", "172.31.2.1")
	add("t2b", 65202, "t2", 4, "02:02:00:00:00:02", "172.31.2.2")

	// Advertise the SAME prefix from both tenants and run the changes
	// through the fast path, exactly as the daemon's frontend does: each
	// tenant domain must get its own singleton FEC for its copy.
	overlap := netip.MustParsePrefix("10.42.0.0/16")
	adv := func(id ID, as uint32, ip string) {
		t.Helper()
		touched, err := rs.Advertise(id, routeFrom(as, ip, overlap, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.FastReact(touched); err != nil {
			t.Fatal(err)
		}
	}
	adv("t1a", 65101, "172.31.1.1")
	adv("t2a", 65201, "172.31.2.1")

	m1, ok1 := c.VMACForIn("t1", overlap)
	m2, ok2 := c.VMACForIn("t2", overlap)
	if !ok1 || !ok2 {
		t.Fatalf("VMACForIn: t1 ok=%v t2 ok=%v, want both", ok1, ok2)
	}
	if m1 == m2 {
		t.Fatalf("tenants share VMAC %v for overlapping prefix — FEC collision", m1)
	}
	// The unscoped (default-domain) lookup must not leak either tenant's
	// class: no participant lives in the default VRF here.
	if m, ok := c.VMACFor(overlap); ok {
		t.Fatalf("default domain resolved tenant prefix to %v", m)
	}

	// Each tenant's receiver must route the prefix to its own announcer.
	if id, ok := rs.BestNextHopParticipant("t1b", overlap); !ok || id != "t1a" {
		t.Fatalf("t1b next hop = %v %v, want t1a", id, ok)
	}
	if id, ok := rs.BestNextHopParticipant("t2b", overlap); !ok || id != "t2a" {
		t.Fatalf("t2b next hop = %v %v, want t2a", id, ok)
	}
}
